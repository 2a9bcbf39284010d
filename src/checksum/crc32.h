// crc32.h — CRC-32 (IEEE 802.3 polynomial, reflected).
//
// Used by the AAL5-style cell reassembly trailer (src/netsim/cell_link),
// the byte-stream framing trailer (src/netsim/framing) and as the
// strong-integrity option in the ALF per-ADU check. Three forms: the
// classic table-driven byte-at-a-time reference; crc32_update, which
// continues a raw state with slice-by-8 (one 64-bit load per 8 bytes) and
// is the table entry of every SIMD tier without a folded CRC
// (simd/dispatch.h); and the word primitives the ILP Crc32Stage
// (ilp/stages.h) folds into its fused word loop.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace ngp {

/// CRC-32 of `data` (init 0xFFFFFFFF, reflected, final xor 0xFFFFFFFF) —
/// the zlib/Ethernet CRC. Table-driven, one byte per step.
std::uint32_t crc32(ConstBytes data) noexcept;

/// Continues a raw CRC state (pre-final-xor) over `data`, slice-by-8, and
/// returns the new raw state. crc32(d) == crc32_update(0xFFFFFFFF, d) ^
/// 0xFFFFFFFF, and crc32_update(crc32_update(s, a), b) ==
/// crc32_update(s, a‖b) for any cut.
std::uint32_t crc32_update(std::uint32_t state, ConstBytes data) noexcept;

/// Advances a raw CRC state by one little-endian 64-bit word using the
/// slice-by-8 tables. Exposed so the ILP Crc32Stage (ilp/stages.h) can
/// fold CRC computation into a fused word loop.
std::uint32_t crc32_update_word(std::uint32_t state, std::uint64_t word) noexcept;

/// Advances a raw CRC state by n (< 8) tail bytes of a little-endian word.
std::uint32_t crc32_update_tail(std::uint32_t state, std::uint64_t word,
                                std::size_t n) noexcept;

/// Incremental CRC-32 (absorb in pieces, then finish).
class Crc32 {
 public:
  void add(ConstBytes data) noexcept;
  std::uint32_t finish() const noexcept { return state_ ^ 0xFFFFFFFFu; }
  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace ngp
