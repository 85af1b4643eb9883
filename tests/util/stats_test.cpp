#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace oddci::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.confidence_halfwidth(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Random rng(1);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, ConfidenceShrinksWithSamples) {
  Random rng(2);
  RunningStats small, big;
  for (int i = 0; i < 10; ++i) small.add(rng.normal(0, 1));
  for (int i = 0; i < 1000; ++i) big.add(rng.normal(0, 1));
  EXPECT_GT(small.confidence_halfwidth(0.90), big.confidence_halfwidth(0.90));
  EXPECT_LT(big.confidence_halfwidth(0.90), big.confidence_halfwidth(0.99));
}

TEST(Samples, PercentilesOnKnownData) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(Samples, PercentileValidation) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);  // single element
}

TEST(Samples, EmptyReturnsZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(Samples, AddAfterPercentileStillSorted) {
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Samples, MeanAndStddev) {
  Samples s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Histogram, BucketsAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);    // bucket 0
  h.add(9.999);  // bucket 9
  h.add(5.0);    // bucket 5
  h.add(-0.1);   // underflow
  h.add(10.0);   // overflow (hi is exclusive)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(5), 6.0);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string out = h.render(10);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('2'), std::string::npos);
}

}  // namespace
}  // namespace oddci::util
