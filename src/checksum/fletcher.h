// fletcher.h — Fletcher checksums (RFC 1146 family).
//
// Fletcher is the classic "cheaper than CRC, stronger than the Internet
// sum" point in the design space; included as an ablation option for the
// per-ADU integrity check.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace ngp {

/// Fletcher-16 over bytes (modulo 255).
std::uint16_t fletcher16(ConstBytes data) noexcept;

/// Fletcher-32 over 16-bit little-endian words (modulo 65535); odd trailing
/// byte is zero-padded.
std::uint32_t fletcher32(ConstBytes data) noexcept;

/// Incremental Fletcher-32 (absorb in pieces, then finish): identical to
/// fletcher32() over the concatenation, whatever the piece boundaries. A
/// piece that ends on an odd byte carries it as the low half of the word
/// the next piece completes.
class Fletcher32 {
 public:
  void add(ConstBytes data) noexcept;
  std::uint32_t finish() const noexcept;

 private:
  std::uint32_t a_ = 0, b_ = 0;
  int carry_ = -1;  ///< pending low byte of a split word; -1 = none
};

}  // namespace ngp
