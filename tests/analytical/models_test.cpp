#include "analytical/models.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oddci::analytical {
namespace {

TEST(Wakeup, FormulaMatchesPaper) {
  // W = 1.5 * I / beta; 10 MB at 1 Mbps = 1.5 * 83886080 / 1e6.
  const auto image = util::Bits::from_megabytes(10);
  const auto beta = util::BitRate::from_mbps(1.0);
  EXPECT_NEAR(wakeup_seconds(image, beta), 1.5 * 83886080.0 / 1e6, 1e-6);
  EXPECT_NEAR(wakeup_best_seconds(image, beta), 83.886, 1e-3);
  EXPECT_NEAR(wakeup_worst_seconds(image, beta), 2 * 83.886, 1e-2);
  EXPECT_THROW((void)wakeup_seconds(image, util::BitRate(0)),
               std::invalid_argument);
}

TEST(Wakeup, PaperClaimMinutesForTypicalImages) {
  // Section 5.1: typical images <= 8 MB at beta >= 1 Mbps wake up within a
  // couple of minutes, independent of the number of nodes.
  const double w = wakeup_seconds(util::Bits::from_megabytes(8),
                                  util::BitRate::from_mbps(1.0));
  EXPECT_LT(w, 120.0);
}

JobModel fig6_job(double phi, std::size_t n) {
  // Figure 6 scenario: (s + r) = 1 KB, delta = 150 Kbps, I = 10 MB.
  JobModel jm;
  jm.n = n;
  jm.s_bits = 512 * 8.0;
  jm.r_bits = 512 * 8.0;
  jm.p_seconds = task_seconds_for_suitability(
      1024 * 8.0, util::BitRate::from_kbps(150.0), phi);
  jm.image = util::Bits::from_megabytes(10);
  return jm;
}

TEST(Makespan, EquationOne) {
  SystemModel sm;
  JobModel jm;
  jm.n = 1000;
  jm.s_bits = 4096;
  jm.r_bits = 4096;
  jm.p_seconds = 30.0;
  jm.image = util::Bits::from_megabytes(10);
  const std::size_t N = 100;
  const double expected =
      1.5 * 83886080.0 / 1e6 + 10.0 * (8192.0 / 150e3 + 30.0);
  EXPECT_NEAR(makespan_seconds(sm, jm, N), expected, 1e-6);
  EXPECT_THROW((void)makespan_seconds(sm, jm, 0), std::invalid_argument);
  jm.n = 0;
  EXPECT_THROW((void)makespan_seconds(sm, jm, N), std::invalid_argument);
}

TEST(Efficiency, EquationTwo) {
  SystemModel sm;
  JobModel jm;
  jm.n = 1000;
  jm.s_bits = 4096;
  jm.r_bits = 4096;
  jm.p_seconds = 30.0;
  jm.image = util::Bits::from_megabytes(10);
  const double M = makespan_seconds(sm, jm, 100);
  EXPECT_NEAR(efficiency(sm, jm, 100), 1000.0 * 30.0 / (M * 100.0), 1e-12);
}

TEST(Efficiency, MonotoneInSuitabilityAndRatio) {
  SystemModel sm;
  // Rising phi at fixed ratio raises E.
  double last = 0.0;
  for (double phi : {1.0, 10.0, 100.0, 1000.0, 100000.0}) {
    const double e = efficiency(sm, fig6_job(phi, 100 * 100), 100);
    EXPECT_GT(e, last);
    last = e;
  }
  EXPECT_GT(last, 0.95);  // Figure 6: high phi, ratio 100 => E near 1.

  // Rising ratio at fixed phi raises E.
  last = 0.0;
  for (std::size_t ratio : {1u, 10u, 100u, 1000u}) {
    const double e = efficiency(sm, fig6_job(10.0, ratio * 100), 100);
    EXPECT_GT(e, last);
    last = e;
  }
}

TEST(Efficiency, Figure6AnchorPoints) {
  // Representative checks of the Figure 6 curve family: with phi = 1 and
  // n/N = 1 the system is hopeless; with phi >= 100 and n/N >= 100 it is
  // excellent.
  SystemModel sm;
  EXPECT_LT(efficiency(sm, fig6_job(1.0, 100), 100), 0.01);
  EXPECT_GT(efficiency(sm, fig6_job(100.0, 100 * 100), 100), 0.8);
  // The paper: a ratio above 100 is generally enough for high efficiency
  // for most practical applications (phi >= ~300 crosses 0.9).
  EXPECT_GT(efficiency(sm, fig6_job(316.0, 100 * 100), 100), 0.9);
  EXPECT_GT(efficiency(sm, fig6_job(1000.0, 100 * 100), 100), 0.97);
}

TEST(Suitability, DefinitionAndInversion) {
  const auto delta = util::BitRate::from_kbps(150.0);
  // Paper: with (s+r) = 1 KB, phi = 1 corresponds to p ~ 53 ms.
  const double p = task_seconds_for_suitability(1024 * 8.0, delta, 1.0);
  EXPECT_NEAR(p, 0.0546, 1e-3);
  EXPECT_NEAR(suitability(512 * 8, 512 * 8, delta, p), 1.0, 1e-9);
  // phi = 100000 corresponds to ~1.5 hours.
  const double p_big =
      task_seconds_for_suitability(1024 * 8.0, delta, 100000.0);
  EXPECT_NEAR(p_big / 3600.0, 1.5, 0.05);
  EXPECT_THROW((void)suitability(1, 1, delta, 0.0), std::invalid_argument);
  EXPECT_THROW((void)task_seconds_for_suitability(0.0, delta, 1.0),
               std::invalid_argument);
}

TEST(RatioForEfficiency, InvertsEquationTwo) {
  SystemModel sm;
  const JobModel jm = fig6_job(100.0, 1);  // n unused by the inversion
  for (double target : {0.5, 0.8, 0.9}) {
    const double k = ratio_for_efficiency(sm, jm, target);
    ASSERT_GT(k, 0.0) << target;
    // Plug back: a job with n = k*N at N nodes hits the target efficiency.
    JobModel check = jm;
    const std::size_t N = 1000;
    check.n = static_cast<std::size_t>(k * N + 0.5);
    EXPECT_NEAR(efficiency(sm, check, N), target, 0.01);
  }
  // Unreachable targets are signalled.
  const double asym = asymptotic_efficiency(sm, jm);
  EXPECT_LT(ratio_for_efficiency(sm, jm, asym + 0.001), 0.0);
  EXPECT_THROW((void)ratio_for_efficiency(sm, jm, 0.0), std::invalid_argument);
  EXPECT_THROW((void)ratio_for_efficiency(sm, jm, 1.0), std::invalid_argument);
}

TEST(AsymptoticEfficiency, BoundsEfficiency) {
  SystemModel sm;
  const JobModel jm = fig6_job(10.0, 100000 * 100);
  const double asym = asymptotic_efficiency(sm, jm);
  EXPECT_LT(efficiency(sm, jm, 100), asym);
  EXPECT_NEAR(efficiency(sm, jm, 100), asym, 0.01);  // huge ratio: close
}

TEST(Suitability, Figure6TaskDurationRange) {
  // "The average execution time of a task varies from 53 ms (phi = 1) to
  // approximately one and a half hour (phi = 100,000)" — with the paper's
  // phi defined as (s+r)/(delta*p), larger phi means *smaller* p, so the
  // quoted range maps phi = 1 -> 53 ms when p is the varying quantity.
  const auto delta = util::BitRate::from_kbps(150.0);
  const double p1 = task_seconds_for_suitability(8192.0, delta, 1.0);
  EXPECT_NEAR(p1 * 1000.0, 53.0, 3.0);
}

}  // namespace
}  // namespace oddci::analytical
