// fec.h — ADU-level forward error correction (XOR parity).
//
// Footnote 10 of the paper: "lower layer recovery schemes, such as forward
// error correction (FEC), may be applied to these transmission units ...
// our general assertion regarding applications is not meant to preclude
// the use of ADU-level FEC."
//
// Scheme: the sender groups an ADU's data fragments k at a time and emits
// one parity fragment per group — the XOR of the group's payloads, each
// zero-padded to the group's largest fragment. Any single lost fragment in
// a group is reconstructed at the receiver without a retransmission round
// trip. This matters most for RetransmitPolicy::kNone (real-time media,
// where a NACK would arrive too late) and over cell substrates where loss
// amplification makes whole-ADU retransmission expensive (bench_ablation).
//
// The helpers here are pure functions over byte ranges; AlfSender and
// AlfReceiver own the protocol integration.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.h"

namespace ngp::alf {

/// Geometry of one parity group within an ADU.
struct FecGroup {
  std::size_t group_start = 0;  ///< byte offset of the group's first fragment
  std::size_t k = 0;            ///< data fragments per parity block
  std::size_t frag_capacity = 0;///< nominal fragment payload size
  std::size_t adu_len = 0;

  /// Number of data fragments actually in this group (the last group of an
  /// ADU may be short).
  std::size_t fragment_count() const noexcept {
    const std::size_t span = std::min(k * frag_capacity, adu_len - group_start);
    return (span + frag_capacity - 1) / frag_capacity;
  }

  /// Byte offset of fragment `i` of the group.
  std::size_t fragment_offset(std::size_t i) const noexcept {
    return group_start + i * frag_capacity;
  }

  /// Payload length of fragment `i` of the group.
  std::size_t fragment_length(std::size_t i) const noexcept {
    return std::min(frag_capacity, adu_len - fragment_offset(i));
  }

  /// Parity block length: the largest fragment in the group.
  std::size_t parity_length() const noexcept { return fragment_length(0); }
};

/// XORs `src` into `dst` (dst.size() >= src.size()), word-wise. Exposed so
/// the zero-copy receive path can accumulate parity over pool slices
/// without materializing a flat ADU buffer.
void xor_into(MutableBytes dst, ConstBytes src) noexcept;

/// Computes the XOR parity block for `group` over the (complete) ADU
/// payload.
ByteBuffer compute_parity(ConstBytes adu_payload, const FecGroup& group);

}  // namespace ngp::alf
