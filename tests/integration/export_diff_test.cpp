// The replay suites' export comparison names where two exports diverge.

#include "export_diff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace_export.hpp"

namespace oddci::test_support {
namespace {

std::vector<obs::TraceEvent> three_hops() {
  std::vector<obs::TraceEvent> events(3);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].t_micros = 1'000 * static_cast<std::int64_t>(i + 1);
    events[i].trace_id = 7;
    events[i].span_id = i + 1;
    events[i].parent_span = i;
    events[i].actor = 40 + i;
    events[i].kind = obs::TraceEventKind::kControlReceived;
    events[i].component = obs::TraceComponent::kReceiver;
  }
  return events;
}

TEST(ExportDiff, IdenticalExportsPass) {
  const std::string trace = obs::to_chrome_trace(three_hops());
  EXPECT_TRUE(same_export(trace, trace));
}

TEST(ExportDiff, NamesTheEventWhoseTimestampMoved) {
  std::vector<obs::TraceEvent> moved = three_hops();
  moved[1].t_micros += 1;  // 2,000 us -> 2,001 us
  const std::string first = obs::to_chrome_trace(three_hops());
  const std::string second = obs::to_chrome_trace(moved);
  const ::testing::AssertionResult result = same_export(first, second);
  ASSERT_FALSE(result);
  const std::string message = result.message();

  const auto at = static_cast<std::size_t>(
      std::mismatch(first.begin(), first.end(), second.begin()).first -
      first.begin());
  EXPECT_NE(message.find("at byte " + std::to_string(at) + " "),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("(lengths " + std::to_string(first.size()) +
                         " and " + std::to_string(second.size()) + ")"),
            std::string::npos)
      << message;
  // Each side shows the one event that moved, its own "ts" included.
  const std::string_view old_event = enclosing_object(first, at);
  const std::string_view new_event = enclosing_object(second, at);
  EXPECT_EQ(old_event.front(), '{');
  EXPECT_EQ(old_event.back(), '}');
  EXPECT_NE(old_event.find("\"ts\":2000"), std::string_view::npos)
      << old_event;
  EXPECT_NE(new_event.find("\"ts\":2001"), std::string_view::npos)
      << new_event;
  EXPECT_EQ(old_event.find("\"ts\":1000"), std::string_view::npos);
  EXPECT_NE(message.find(old_event), std::string::npos);
  EXPECT_NE(message.find(new_event), std::string::npos);
  EXPECT_LT(message.size(), first.size() + second.size());
}

TEST(ExportDiff, PrefixShowsTheTailBeforeTheEnd) {
  const std::string whole = R"({"a":1,"b":{"c":2}})";
  const std::string longer = whole + "x";
  const ::testing::AssertionResult result = same_export(whole, longer);
  ASSERT_FALSE(result);
  const std::string message = result.message();
  EXPECT_NE(message.find("at byte 19 (lengths 19 and 20)"), std::string::npos)
      << message;
}

}  // namespace
}  // namespace oddci::test_support
