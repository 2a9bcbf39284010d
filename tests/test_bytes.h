// test_bytes.h — readable ByteBuffer comparisons for gtest.
//
// Without a printer gtest shows a ByteBuffer operand as its raw object
// bytes (the pointers of its vector), and EXPECT_EQ names no offset. This
// header gives gtest a printer for ByteBuffer and a predicate formatter
// that names the first byte where two buffers differ:
//
//   EXPECT_PRED_FORMAT2(test::BytesEq, chain.flatten(), want) << context;
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/bytes.h"

namespace ngp {

/// Prints the size and up to the first 32 bytes in hex.
inline void PrintTo(const ByteBuffer& b, std::ostream* os) {
  constexpr std::size_t kShown = 32;
  *os << b.size() << " bytes {" << to_hex(b.subspan(0, kShown))
      << (b.size() > kShown ? "...}" : "}");
}

namespace test {

/// Passes when both buffers hold the same bytes; else the message gives
/// both sizes, the first differing offset and the byte each side holds
/// there (or that one side ends first).
inline ::testing::AssertionResult BytesEq(const char* got_expr, const char* want_expr,
                                          const ByteBuffer& got,
                                          const ByteBuffer& want) {
  if (got == want) return ::testing::AssertionSuccess();
  const std::size_t common = std::min(got.size(), want.size());
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(got.data(), got.data() + common, want.data()).first -
      got.data());
  auto fail = ::testing::AssertionFailure();
  fail << got_expr << " differs from " << want_expr << " at offset " << at;
  if (at < common) {
    char bytes[32];
    std::snprintf(bytes, sizeof bytes, ": 0x%02x vs 0x%02x", got[at], want[at]);
    fail << bytes;
  } else {
    fail << ": " << (got.size() < want.size() ? got_expr : want_expr)
         << " ends there";
  }
  fail << "\n  " << got_expr << ": " << ::testing::PrintToString(got) << "\n  "
       << want_expr << ": " << ::testing::PrintToString(want);
  return fail;
}

}  // namespace test
}  // namespace ngp
