#include "workload/protein.hpp"

#include <gtest/gtest.h>

namespace oddci::workload {
namespace {

TEST(Protein, AminoIndexRoundTrip) {
  for (std::size_t i = 0; i < kAminoAcids.size(); ++i) {
    EXPECT_EQ(amino_index(kAminoAcids[i]), i);
  }
  EXPECT_EQ(amino_index('B'), 0xFF);
  EXPECT_EQ(amino_index('X'), 0xFF);
  EXPECT_EQ(amino_index('a'), 0xFF);  // case-sensitive by design
}

TEST(Protein, Blosum62KnownValues) {
  EXPECT_EQ(blosum62('A', 'A'), 4);
  EXPECT_EQ(blosum62('W', 'W'), 11);
  EXPECT_EQ(blosum62('A', 'W'), -3);
  EXPECT_EQ(blosum62('L', 'I'), 2);
  EXPECT_EQ(blosum62('D', 'E'), 2);
  EXPECT_THROW((void)blosum62('A', 'X'), std::invalid_argument);
}

TEST(Protein, Blosum62IsSymmetric) {
  for (char a : kAminoAcids) {
    for (char b : kAminoAcids) {
      EXPECT_EQ(blosum62(a, b), blosum62(b, a)) << a << " vs " << b;
    }
  }
}

TEST(Protein, DiagonalIsRowMaximum) {
  // Self-substitution scores highest in (almost) every row; BLOSUM62's
  // diagonal dominates its row for all residues.
  for (char a : kAminoAcids) {
    for (char b : kAminoAcids) {
      if (a == b) continue;
      EXPECT_GT(blosum62(a, a), blosum62(a, b)) << a << " vs " << b;
    }
  }
}

TEST(Protein, SelfAlignmentScoresDiagonalSum) {
  const std::string peptide = "MKTAYIAKQR";
  int expected = 0;
  for (char c : peptide) expected += blosum62(c, c);
  const auto r = smith_waterman_protein(peptide, peptide);
  EXPECT_EQ(r.score, expected);
}

TEST(Protein, HomologScoresAboveRandom) {
  ProteinGenerator gen(61);
  const std::string query = gen.random_protein(120);
  const std::string homolog = gen.mutate(query, 0.2);
  const std::string unrelated = gen.random_protein(120);
  const auto h = smith_waterman_protein(query, homolog);
  const auto u = smith_waterman_protein(query, unrelated);
  EXPECT_GT(h.score, 2 * u.score);
}

TEST(Protein, ConservativeSubstitutionBeatsRadical) {
  // L->I (score 2) vs L->P (score -3) inside an identical context.
  const std::string query = "AAAALAAAA";
  const auto conservative = smith_waterman_protein(query, "AAAAIAAAA");
  const auto radical = smith_waterman_protein(query, "AAAAPAAAA");
  EXPECT_GT(conservative.score, radical.score);
}

TEST(Protein, Validation) {
  EXPECT_THROW((void)smith_waterman_protein("MKT", "MXT"),
               std::invalid_argument);
  ProteinScoring bad;
  bad.gap_open = 1;
  EXPECT_THROW((void)smith_waterman_protein("MKT", "MKT", bad),
               std::invalid_argument);
  EXPECT_EQ(smith_waterman_protein("", "MKT").score, 0);
}

TEST(ProteinGenerator, ProducesValidSequences) {
  ProteinGenerator gen(62);
  const std::string s = gen.random_protein(5000);
  EXPECT_EQ(s.size(), 5000u);
  EXPECT_TRUE(is_valid_protein(s));
}

TEST(ProteinGenerator, BackgroundFrequenciesRealistic) {
  ProteinGenerator gen(63);
  const std::string s = gen.random_protein(100000);
  std::size_t leu = 0, trp = 0;
  for (char c : s) {
    if (c == 'L') ++leu;
    if (c == 'W') ++trp;
  }
  // Leucine ~9%, tryptophan ~1.3% in natural proteins.
  EXPECT_NEAR(static_cast<double>(leu) / s.size(), 0.090, 0.01);
  EXPECT_NEAR(static_cast<double>(trp) / s.size(), 0.013, 0.005);
}

TEST(ProteinGenerator, MutateRateRespected) {
  ProteinGenerator gen(64);
  const std::string s = gen.random_protein(20000);
  const std::string m = gen.mutate(s, 0.3);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != m[i]) ++diffs;
  }
  // Substitutes are drawn from the background, so ~7% of "mutations" keep
  // the same residue: effective rate ~ 0.3 * (1 - bg(res)).
  EXPECT_NEAR(static_cast<double>(diffs) / s.size(), 0.28, 0.02);
  EXPECT_THROW(gen.mutate(s, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace oddci::workload
