#include "workload/alignment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "workload/sequence.hpp"

namespace oddci::workload {
namespace {

TEST(Scoring, Validation) {
  Scoring ok;
  EXPECT_NO_THROW(ok.validate());
  Scoring bad = ok;
  bad.match = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.mismatch = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.gap_open = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.gap_extend = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(SmithWaterman, PerfectMatchScoresFullLength) {
  const Scoring sc;
  const auto r = smith_waterman("ACGTACGT", "ACGTACGT", sc);
  EXPECT_EQ(r.score, 8 * sc.match);
  EXPECT_EQ(r.query_end, 8u);
  EXPECT_EQ(r.subject_end, 8u);
  EXPECT_EQ(r.cells, 64u);
}

TEST(SmithWaterman, FindsEmbeddedMatch) {
  // Query embedded in a larger subject.
  const Scoring sc;
  const std::string query = "GATTACA";
  const std::string subject = "TTTTTTGATTACATTTTTT";
  const auto r = smith_waterman(query, subject, sc);
  EXPECT_EQ(r.score, 7 * sc.match);
  EXPECT_EQ(r.subject_end, 13u);  // end of GATTACA within subject
}

TEST(SmithWaterman, MismatchReducesScore) {
  const Scoring sc;
  const auto exact = smith_waterman("ACGTACGTAC", "ACGTACGTAC", sc);
  const auto noisy = smith_waterman("ACGTACGTAC", "ACGTTCGTAC", sc);
  EXPECT_LT(noisy.score, exact.score);
  EXPECT_GT(noisy.score, 0);
}

TEST(SmithWaterman, LocalAlignmentIgnoresFlankingJunk) {
  const Scoring sc;
  // Same core alignment regardless of unrelated flanks.
  const auto a = smith_waterman("GATTACA", "GATTACA", sc);
  const auto b = smith_waterman("CCCCGATTACACCCC", "TTTTGATTACATTTT", sc);
  EXPECT_EQ(a.score, b.score);
}

TEST(SmithWaterman, GapAlignmentBeatsDoubleMismatch) {
  // Subject has one base deleted; an affine gap should bridge it.
  const Scoring sc;
  const std::string query = "AAAACGTTTTGGGGCCCC";
  std::string subject = query;
  subject.erase(7, 1);  // delete one base
  const auto r = smith_waterman(query, subject, sc);
  // Expected: all residues matched but one gap: score ~ 17*2 - 5.
  EXPECT_EQ(r.score, 17 * sc.match + sc.gap_open);
}

TEST(SmithWaterman, EmptyInputsScoreZero) {
  const auto r1 = smith_waterman("", "ACGT");
  EXPECT_EQ(r1.score, 0);
  const auto r2 = smith_waterman("ACGT", "");
  EXPECT_EQ(r2.score, 0);
}

TEST(SmithWaterman, DisjointSequencesScoreNearZero) {
  const auto r = smith_waterman("AAAAAAAA", "CCCCCCCC");
  EXPECT_EQ(r.score, 0);
}

TEST(UngappedExtend, ExtendsThroughMatchesBothDirections) {
  const Scoring sc;
  const std::string q = "TTTGATTACATTT";
  const std::string s = "CCCGATTACACCC";
  // Seed on "TTAC" at q[5], s[5] (seed_len 4).
  const auto r = ungapped_extend(q, s, 5, 5, 4, sc, 20);
  // Extends left to cover GAT and right to cover A: GATTACA = 7 matches.
  EXPECT_EQ(r.score, 7 * sc.match);
  EXPECT_EQ(r.query_begin, 3u);
  EXPECT_EQ(r.query_end, 10u);
}

TEST(UngappedExtend, XDropTerminatesExtension) {
  const Scoring sc;
  // After the seed, pure mismatches: x_drop stops quickly.
  const std::string q = "GATTAAAAAAAA";
  const std::string s = "GATTCCCCCCCC";
  const auto r = ungapped_extend(q, s, 0, 0, 4, sc, 5);
  EXPECT_EQ(r.score, 4 * sc.match);
  EXPECT_LT(r.query_end, q.size());  // did not extend to the end
}

TEST(UngappedExtend, Validation) {
  const Scoring sc;
  EXPECT_THROW((void)ungapped_extend("ACGT", "ACGT", 2, 2, 4, sc, 10),
               std::invalid_argument);  // seed overruns
  EXPECT_THROW((void)ungapped_extend("ACGT", "ACGT", 0, 0, 4, sc, 0),
               std::invalid_argument);  // bad x_drop
}

TEST(BandedAlign, MatchesFullDpOnNarrowProblems) {
  const Scoring sc;
  SequenceGenerator gen(11);
  for (int i = 0; i < 20; ++i) {
    const std::string a = gen.random_dna(60);
    const std::string b = gen.mutate(a, 0.05, 0.01);
    const auto full = smith_waterman(a, b, sc);
    const auto banded = banded_align(a, b, sc, 16);
    // With few indels, the optimum lies inside the band.
    EXPECT_EQ(banded.score, full.score) << "iteration " << i;
  }
}

TEST(BandedAlign, CheaperThanFullDp) {
  const Scoring sc;
  SequenceGenerator gen(12);
  const std::string a = gen.random_dna(500);
  const std::string b = gen.mutate(a, 0.03, 0.0);
  const auto full = smith_waterman(a, b, sc);
  const auto banded = banded_align(a, b, sc, 8);
  EXPECT_LT(banded.cells, full.cells / 5);
}

TEST(BandedAlign, Validation) {
  EXPECT_THROW((void)banded_align("A", "A", Scoring{}, 0),
               std::invalid_argument);
  const auto r = banded_align("", "ACGT", Scoring{}, 4);
  EXPECT_EQ(r.score, 0);
}

// Property sweep: score is symmetric in (query, subject) for symmetric
// scoring, and never negative, and never exceeds match * min(len).
class AlignmentPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AlignmentPropertyTest, ScoreBoundsAndSymmetry) {
  SequenceGenerator gen(GetParam());
  const Scoring sc;
  const std::string a = gen.random_dna(40 + GetParam() % 60);
  const std::string b = gen.random_dna(40 + (GetParam() * 7) % 60);
  const auto ab = smith_waterman(a, b, sc);
  const auto ba = smith_waterman(b, a, sc);
  EXPECT_EQ(ab.score, ba.score);
  EXPECT_GE(ab.score, 0);
  const auto cap =
      static_cast<int>(std::min(a.size(), b.size())) * sc.match;
  EXPECT_LE(ab.score, cap);
  // Self-alignment is maximal.
  const auto aa = smith_waterman(a, a, sc);
  EXPECT_EQ(aa.score, static_cast<int>(a.size()) * sc.match);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, AlignmentPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace oddci::workload
