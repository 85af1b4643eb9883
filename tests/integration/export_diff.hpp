#pragma once

// Byte-identity check for two exports, a metrics JSON or a Chrome trace.
// Each export is one line, so a plain EXPECT_EQ prints both whole strings
// on a mismatch. same_export() says where they diverge instead: the byte
// offset, both lengths and the innermost JSON object enclosing the first
// differing byte on each side (for a trace, the event whose field moved).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

namespace oddci::test_support {

/// Walks JSON text byte by byte, telling structure from string contents.
class JsonScanner {
 public:
  /// Feed one byte; returns it, or '\0' when it lies inside a string.
  char structural(char c) {
    if (in_string_) {
      if (escaped_) {
        escaped_ = false;
      } else if (c == '\\') {
        escaped_ = true;
      } else if (c == '"') {
        in_string_ = false;
      }
      return '\0';
    }
    if (c == '"') in_string_ = true;
    return c;
  }

 private:
  bool in_string_ = false;
  bool escaped_ = false;
};

/// The innermost JSON object of `text` that is open at byte `at`, cut to
/// `limit` bytes. When no object is open there (one export is a whole
/// document and a prefix of the other), the `limit` bytes before `at`.
inline std::string_view enclosing_object(std::string_view text,
                                         std::size_t at,
                                         std::size_t limit = 512) {
  at = std::min(at, text.size());
  std::vector<std::size_t> open;  // offsets of the unclosed '{'
  JsonScanner scan;
  for (std::size_t i = 0; i < at; ++i) {
    const char c = scan.structural(text[i]);
    if (c == '{') open.push_back(i);
    if (c == '}' && !open.empty()) open.pop_back();
  }
  if (open.empty()) {
    const std::size_t begin = at > limit ? at - limit : 0;
    return text.substr(begin, at - begin);
  }
  const std::size_t begin = open.back();
  JsonScanner from_begin;
  int depth = 0;
  for (std::size_t i = begin; i < text.size(); ++i) {
    const char c = from_begin.structural(text[i]);
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) {
      return text.substr(begin, std::min(i + 1 - begin, limit));
    }
  }
  return text.substr(begin, limit);  // unterminated
}

/// Success when `first` and `second` are byte-identical; otherwise a
/// failure naming the first differing byte, both lengths and the object
/// around it on each side.
inline ::testing::AssertionResult same_export(std::string_view first,
                                              std::string_view second) {
  if (first == second) return ::testing::AssertionSuccess();
  const auto diverge =
      std::mismatch(first.begin(), first.end(), second.begin(), second.end());
  const auto at = static_cast<std::size_t>(diverge.first - first.begin());
  return ::testing::AssertionFailure()
         << "exports differ at byte " << at << " (lengths " << first.size()
         << " and " << second.size() << ")\n  first:  "
         << enclosing_object(first, at) << "\n  second: "
         << enclosing_object(second, at);
}

}  // namespace oddci::test_support
