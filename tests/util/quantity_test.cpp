#include "util/quantity.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oddci::util {
namespace {

TEST(Bits, ConversionsRoundTrip) {
  const Bits b = Bits::from_megabytes(10);
  EXPECT_EQ(b.count(), 10LL * 1024 * 1024 * 8);
  EXPECT_DOUBLE_EQ(b.megabytes(), 10.0);
  EXPECT_DOUBLE_EQ(b.kilobytes(), 10.0 * 1024.0);
  EXPECT_DOUBLE_EQ(b.bytes(), 10.0 * 1024.0 * 1024.0);
}

TEST(Bits, FromBytesAndKilobytes) {
  EXPECT_EQ(Bits::from_bytes(1).count(), 8);
  EXPECT_EQ(Bits::from_kilobytes(1).count(), 8192);
}

TEST(Bits, Arithmetic) {
  const Bits a = Bits::from_bytes(100);
  const Bits b = Bits::from_bytes(28);
  EXPECT_EQ((a + b).count(), 128 * 8);
  EXPECT_EQ((a - b).count(), 72 * 8);
  EXPECT_EQ((a * 3).count(), 300 * 8);
  EXPECT_EQ((3 * a).count(), 300 * 8);
  Bits c = a;
  c += b;
  EXPECT_EQ(c, a + b);
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(Bits, Ordering) {
  EXPECT_LT(Bits(7), Bits(8));
  EXPECT_EQ(Bits(8), Bits::from_bytes(1));
  EXPECT_GT(Bits::from_megabytes(1), Bits::from_kilobytes(1023));
}

TEST(BitRate, Conversions) {
  const BitRate r = BitRate::from_mbps(1.5);
  EXPECT_DOUBLE_EQ(r.bps(), 1.5e6);
  EXPECT_DOUBLE_EQ(r.kbps(), 1500.0);
  EXPECT_DOUBLE_EQ(r.mbps(), 1.5);
  EXPECT_DOUBLE_EQ(BitRate::from_kbps(150).bps(), 150e3);
}

TEST(BitRate, Arithmetic) {
  const BitRate a = BitRate::from_mbps(2.0);
  const BitRate b = BitRate::from_mbps(0.5);
  EXPECT_DOUBLE_EQ((a + b).mbps(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).mbps(), 1.5);
  EXPECT_DOUBLE_EQ((a * 2.0).mbps(), 4.0);
}

TEST(TransmissionSeconds, PaperWakeupNumbers) {
  // Section 5.1: an 8 MB image at beta = 1 Mbps: I/beta ~ 67.1 s, so the
  // paper's "less than 64 seconds" refers to a decimal-MB reading; our
  // binary MB gives 8 * 2^20 * 8 / 1e6.
  const double s =
      transmission_seconds(Bits::from_megabytes(8), BitRate::from_mbps(1.0));
  EXPECT_NEAR(s, 67.1, 0.1);
}

TEST(TransmissionSeconds, RejectsNonPositiveRate) {
  EXPECT_THROW((void)transmission_seconds(Bits(8), BitRate(0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)transmission_seconds(Bits(8), BitRate(-1.0)),
               std::invalid_argument);
}

TEST(TransmissionSeconds, RejectsNegativeData) {
  EXPECT_THROW((void)transmission_seconds(Bits(-1), BitRate(1.0)),
               std::invalid_argument);
}

TEST(TransmissionSeconds, ZeroDataIsInstant) {
  EXPECT_DOUBLE_EQ(transmission_seconds(Bits(0), BitRate(1e6)), 0.0);
}

TEST(Quantity, ToStringPicksUnits) {
  EXPECT_NE(Bits::from_megabytes(2).to_string().find("MB"),
            std::string::npos);
  EXPECT_NE(Bits::from_kilobytes(2).to_string().find("KB"),
            std::string::npos);
  EXPECT_NE(Bits(12).to_string().find("bits"), std::string::npos);
  EXPECT_NE(BitRate::from_mbps(2).to_string().find("Mbps"),
            std::string::npos);
  EXPECT_NE(BitRate::from_kbps(2).to_string().find("Kbps"),
            std::string::npos);
  EXPECT_NE(BitRate(12).to_string().find("bps"), std::string::npos);
}

}  // namespace
}  // namespace oddci::util
