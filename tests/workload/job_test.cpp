#include "workload/job.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace oddci::workload {
namespace {

TEST(Job, UniformJobAverages) {
  const Job job = make_uniform_job("j", util::Bits::from_megabytes(1), 100,
                                   util::Bits::from_bytes(512),
                                   util::Bits::from_bytes(256), 30.0);
  EXPECT_EQ(job.task_count(), 100u);
  EXPECT_DOUBLE_EQ(job.avg_input_bits(), 512 * 8.0);
  EXPECT_DOUBLE_EQ(job.avg_result_bits(), 256 * 8.0);
  EXPECT_DOUBLE_EQ(job.avg_reference_seconds(), 30.0);
  EXPECT_DOUBLE_EQ(job.total_reference_seconds(), 3000.0);
}

TEST(Job, ValidationCatchesNonsense) {
  Job job = make_uniform_job("j", util::Bits(8), 1, util::Bits(0),
                             util::Bits(0), 1.0);
  job.tasks.clear();
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = make_uniform_job("j", util::Bits(8), 1, util::Bits(0), util::Bits(0),
                         1.0);
  job.image_size = util::Bits(0);
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = make_uniform_job("j", util::Bits(8), 1, util::Bits(0), util::Bits(0),
                         1.0);
  job.tasks[0].reference_seconds = 0.0;
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = make_uniform_job("j", util::Bits(8), 1, util::Bits(0), util::Bits(0),
                         1.0);
  job.tasks[0].input_size = util::Bits(-8);
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(Job, SuitabilityMatchesDefinition) {
  const auto delta = util::BitRate::from_kbps(150);
  const Job job = make_uniform_job("j", util::Bits(8), 10,
                                   util::Bits::from_bytes(512),
                                   util::Bits::from_bytes(512), 0.0546);
  // Phi = delta * p / (s + r) = 150000 * 0.0546 / 8192 ~ 1.0
  EXPECT_NEAR(suitability(job, delta), 150e3 * 0.0546 / 8192.0, 1e-9);
  EXPECT_THROW((void)suitability(job, util::BitRate(0)), std::invalid_argument);
}

TEST(Job, ParametricJobIsInfinitelySuitable) {
  const Job job = make_uniform_job("param", util::Bits(8), 10, util::Bits(0),
                                   util::Bits(0), 1.0);
  EXPECT_TRUE(std::isinf(suitability(job, util::BitRate::from_kbps(150))));
}

TEST(Job, SuitabilityInversionRoundTrips) {
  const auto delta = util::BitRate::from_kbps(150);
  const auto payload = util::Bits::from_kilobytes(1);
  for (double phi : {1.0, 10.0, 100.0, 1000.0, 100000.0}) {
    const Job job = make_job_for_suitability("j", util::Bits(80), 10, payload,
                                             delta, phi);
    EXPECT_NEAR(suitability(job, delta), phi, phi * 1e-9);
  }
  EXPECT_THROW(make_job_for_suitability("j", util::Bits(80), 10, payload,
                                        delta, 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_job_for_suitability("j", util::Bits(80), 10,
                                        util::Bits(0), delta, 1.0),
               std::invalid_argument);
}

TEST(Job, PayloadSplitPreservesTotal) {
  const Job job = make_job_for_suitability(
      "j", util::Bits(80), 5, util::Bits(8193),  // odd bit count
      util::BitRate::from_kbps(150), 10.0);
  EXPECT_EQ(job.tasks[0].input_size.count() +
                job.tasks[0].result_size.count(),
            8193);
}

TEST(Job, LognormalJobMedianApproximatesTarget) {
  util::Random rng(31);
  const Job job = make_lognormal_job("j", util::Bits(80), 20001,
                                     util::Bits(8), util::Bits(8), 10.0, 0.5,
                                     rng);
  std::vector<double> ps;
  ps.reserve(job.tasks.size());
  for (const auto& t : job.tasks) ps.push_back(t.reference_seconds);
  std::nth_element(ps.begin(), ps.begin() + ps.size() / 2, ps.end());
  EXPECT_NEAR(ps[ps.size() / 2], 10.0, 0.5);
  EXPECT_THROW(make_lognormal_job("j", util::Bits(80), 10, util::Bits(8),
                                  util::Bits(8), 0.0, 0.5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace oddci::workload
