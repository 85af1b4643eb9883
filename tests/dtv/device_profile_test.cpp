#include "dtv/device_profile.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oddci::dtv {
namespace {

TEST(DeviceProfile, Stb7109MatchesPaperRatios) {
  const DeviceProfile stb = DeviceProfile::stb_st7109();
  // In use: 20.6x the reference PC.
  EXPECT_NEAR(stb.slowdown(PowerMode::kInUse), 20.6, 1e-9);
  // Standby is 1.65x faster than in use.
  EXPECT_NEAR(stb.slowdown(PowerMode::kInUse) /
                  stb.slowdown(PowerMode::kStandby),
              1.65, 1e-9);
  EXPECT_EQ(stb.ram, util::Bits::from_megabytes(256));
  EXPECT_EQ(stb.flash, util::Bits::from_megabytes(32));
}

TEST(DeviceProfile, ReferencePcIsUnit) {
  const DeviceProfile pc = DeviceProfile::reference_pc();
  EXPECT_DOUBLE_EQ(pc.slowdown(PowerMode::kStandby), 1.0);
  EXPECT_DOUBLE_EQ(pc.slowdown(PowerMode::kInUse), 1.0);
}

TEST(DeviceProfile, ReferenceStbIsUnit) {
  const DeviceProfile stb = DeviceProfile::reference_stb();
  EXPECT_DOUBLE_EQ(stb.slowdown(PowerMode::kStandby), 1.0);
  EXPECT_DOUBLE_EQ(stb.slowdown(PowerMode::kInUse), 1.0);
}

TEST(DeviceProfile, OffHasNoSlowdown) {
  EXPECT_THROW((void)DeviceProfile::stb_st7109().slowdown(PowerMode::kOff),
               std::logic_error);
}

TEST(DeviceProfile, InUseAlwaysAtLeastStandby) {
  for (const auto& p :
       {DeviceProfile::reference_pc(), DeviceProfile::stb_st7109(),
        DeviceProfile::mobile_phone(), DeviceProfile::reference_stb()}) {
    EXPECT_GE(p.slowdown(PowerMode::kInUse), p.slowdown(PowerMode::kStandby))
        << p.name;
  }
}

TEST(DeviceProfile, PowerModeNames) {
  EXPECT_STREQ(to_string(PowerMode::kOff), "off");
  EXPECT_STREQ(to_string(PowerMode::kStandby), "standby");
  EXPECT_STREQ(to_string(PowerMode::kInUse), "in-use");
}

}  // namespace
}  // namespace oddci::dtv
