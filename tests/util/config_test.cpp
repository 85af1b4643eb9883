#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace oddci::util {
namespace {

TEST(Config, ParsesKeyValues) {
  const Config c = Config::parse("a = 1\nb=hello\n c  =  2.5 \n");
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_EQ(c.get_string("b", ""), "hello");
  EXPECT_DOUBLE_EQ(c.get_double("c", 0.0), 2.5);
}

TEST(Config, CommentsAndBlankLines) {
  const Config c = Config::parse("# full comment\n\nx = 3 # trailing\n");
  EXPECT_EQ(c.get_int("x", 0), 3);
  EXPECT_FALSE(c.contains("#"));
}

TEST(Config, FallbacksWhenMissing) {
  const Config c = Config::parse("");
  EXPECT_EQ(c.get_int("missing", 42), 42);
  EXPECT_EQ(c.get_string("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(c.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_FALSE(c.get("missing").has_value());
}

TEST(Config, BoolParsing) {
  const Config c = Config::parse(
      "t1=true\nt2=1\nt3=YES\nt4=On\nf1=false\nf2=0\nf3=no\nf4=OFF\nbad=maybe");
  EXPECT_TRUE(c.get_bool("t1", false));
  EXPECT_TRUE(c.get_bool("t2", false));
  EXPECT_TRUE(c.get_bool("t3", false));
  EXPECT_TRUE(c.get_bool("t4", false));
  EXPECT_FALSE(c.get_bool("f1", true));
  EXPECT_FALSE(c.get_bool("f2", true));
  EXPECT_FALSE(c.get_bool("f3", true));
  EXPECT_FALSE(c.get_bool("f4", true));
  EXPECT_THROW((void)c.get_bool("bad", true), std::runtime_error);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(Config::parse("novalue\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("= empty key\n"), std::runtime_error);
}

TEST(Config, NonNumericValuesNameTheKey) {
  const Config c = Config::parse("n = abc\nx = 1.5extra\n");
  try {
    (void)c.get_int("n", 0);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("key n"), std::string::npos);
  }
  EXPECT_THROW((void)c.get_double("x", 0.0), std::runtime_error);
}

TEST(Config, SetOverrides) {
  Config c = Config::parse("k=1");
  c.set("k", "2");
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, LoadFromFile) {
  const std::string path = ::testing::TempDir() + "/oddci_config_test.cfg";
  {
    std::ofstream f(path);
    f << "receivers = 123\n";
  }
  const Config c = Config::load(path);
  EXPECT_EQ(c.get_int("receivers", 0), 123);
  std::remove(path.c_str());
  EXPECT_THROW(Config::load(path), std::runtime_error);
}

}  // namespace
}  // namespace oddci::util
