#include "workload/sequence.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oddci::workload {
namespace {

TEST(Sequence, DnaCodeRoundTrip) {
  for (std::uint8_t code = 0; code < 4; ++code) {
    EXPECT_EQ(dna_code(dna_char(code)), code);
  }
  EXPECT_EQ(dna_code('a'), 0);
  EXPECT_EQ(dna_code('t'), 3);
  EXPECT_EQ(dna_code('N'), 0xFF);
  EXPECT_THROW((void)dna_char(4), std::invalid_argument);
}

TEST(Sequence, Validation) {
  EXPECT_TRUE(is_valid_dna("ACGTacgt"));
  EXPECT_FALSE(is_valid_dna("ACGX"));
  EXPECT_TRUE(is_valid_dna(""));
}

TEST(Sequence, EncodeDna) {
  const auto enc = encode_dna("ACGT");
  ASSERT_EQ(enc.size(), 4u);
  EXPECT_EQ(enc[0], 0);
  EXPECT_EQ(enc[3], 3);
  EXPECT_THROW(encode_dna("ACGN"), std::invalid_argument);
}

TEST(Sequence, ReverseComplement) {
  EXPECT_EQ(reverse_complement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(reverse_complement("AAAA"), "TTTT");
  EXPECT_EQ(reverse_complement("GATTACA"), "TGTAATC");
  EXPECT_EQ(reverse_complement(reverse_complement("GGCATT")), "GGCATT");
  EXPECT_THROW(reverse_complement("N"), std::invalid_argument);
}

TEST(SequenceGenerator, RandomDnaIsValidAndDeterministic) {
  SequenceGenerator a(1), b(1), c(2);
  const std::string s1 = a.random_dna(1000);
  EXPECT_EQ(s1.size(), 1000u);
  EXPECT_TRUE(is_valid_dna(s1));
  EXPECT_EQ(s1, b.random_dna(1000));
  EXPECT_NE(s1, c.random_dna(1000));
}

TEST(SequenceGenerator, BaseCompositionRoughlyUniform) {
  SequenceGenerator gen(3);
  const std::string s = gen.random_dna(40000);
  std::size_t counts[4] = {0, 0, 0, 0};
  for (char ch : s) counts[dna_code(ch)]++;
  for (auto count : counts) {
    EXPECT_NEAR(static_cast<double>(count) / s.size(), 0.25, 0.02);
  }
}

TEST(SequenceGenerator, MutateZeroRatesIsIdentity) {
  SequenceGenerator gen(4);
  const std::string s = gen.random_dna(500);
  EXPECT_EQ(gen.mutate(s, 0.0, 0.0), s);
}

TEST(SequenceGenerator, MutateSubstitutionRateApproximate) {
  SequenceGenerator gen(5);
  const std::string s = gen.random_dna(20000);
  const std::string m = gen.mutate(s, 0.1, 0.0);
  ASSERT_EQ(m.size(), s.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != m[i]) ++diffs;
  }
  EXPECT_NEAR(static_cast<double>(diffs) / s.size(), 0.1, 0.01);
}

TEST(SequenceGenerator, MutateSubstitutionNeverProducesSameBase) {
  // The substituted base must differ from the original (otherwise the
  // effective rate would be 3/4 of the nominal one).
  SequenceGenerator gen(6);
  const std::string s(5000, 'A');
  const std::string m = gen.mutate(s, 1.0, 0.0);
  for (char ch : m) {
    EXPECT_NE(ch, 'A');
  }
}

TEST(SequenceGenerator, MutateIndelsChangeLength) {
  SequenceGenerator gen(7);
  const std::string s = gen.random_dna(10000);
  const std::string m = gen.mutate(s, 0.0, 0.2);
  EXPECT_NE(m.size(), s.size());  // overwhelmingly likely
  EXPECT_TRUE(is_valid_dna(m));
}

TEST(SequenceGenerator, MutateValidatesRates) {
  SequenceGenerator gen(8);
  EXPECT_THROW(gen.mutate("ACGT", -0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(gen.mutate("ACGT", 0.0, 1.5), std::invalid_argument);
}

TEST(SequenceGenerator, RandomDatabaseRespectsLengthRange) {
  SequenceGenerator gen(9);
  const auto db = gen.random_database(50, 100, 200);
  EXPECT_EQ(db.size(), 50u);
  for (const auto& s : db) {
    EXPECT_GE(s.size(), 100u);
    EXPECT_LE(s.size(), 200u);
  }
  EXPECT_THROW(gen.random_database(5, 0, 10), std::invalid_argument);
  EXPECT_THROW(gen.random_database(5, 10, 5), std::invalid_argument);
}

}  // namespace
}  // namespace oddci::workload
