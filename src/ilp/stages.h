// stages.h — word-oriented data-manipulation stages for ILP.
//
// The paper's §6 observation: the expensive protocol functions all *touch
// every byte*, and on RISC machines the dominant cost is memory traffic, so
// the manipulations should be fused into one loop that reads each word
// once. This header defines the manipulation stages as small value types
// with a uniform word-level interface, so the integrated executor
// (engine.h) can compose any subset into a single inlined loop, and the
// layered executor can run the same stages as separate per-layer passes.
//
// Stage interface (see the WordStage concept):
//   uint64_t word(uint64_t w)            — absorb/transform one aligned
//                                          8-byte little-endian word
//   uint64_t tail(uint64_t w, size_t n)  — final partial word; only the low
//                                          n bytes are meaningful and the
//                                          rest are zero on input; the
//                                          stage must keep the padding zero
//   static constexpr bool kMutates       — whether the stage writes data
//                                          (drives store elision in the
//                                          layered executor)
#pragma once

#include <concepts>
#include <cstdint>

#include "checksum/crc32.h"
#include "crypto/chacha20.h"
#include "util/bytes.h"

namespace ngp {

/// Compile-time interface for an ILP manipulation stage.
template <typename S>
concept WordStage = requires(S s, std::uint64_t w, std::size_t n) {
  { s.word(w) } -> std::same_as<std::uint64_t>;
  { s.tail(w, n) } -> std::same_as<std::uint64_t>;
  { S::kMutates } -> std::convertible_to<bool>;
};

/// Zero mask for the high (8-n) bytes of a partial word.
constexpr std::uint64_t tail_mask(std::size_t n) noexcept {
  return n >= 8 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (8 * n)) - 1);
}

/// Internet-checksum stage (RFC 1071), non-mutating.
///
/// Accumulates the one's-complement sum in little-endian word space (the
/// standard endian-symmetry trick); result() byte-swaps back. Matches
/// internet_checksum()/internet_checksum_unrolled() exactly — a tested
/// property.
class ChecksumStage {
 public:
  static constexpr bool kMutates = false;

  std::uint64_t word(std::uint64_t w) noexcept {
    sum_ += w;
    if (sum_ < w) ++sum_;  // end-around carry
    return w;
  }

  std::uint64_t tail(std::uint64_t w, std::size_t /*n*/) noexcept {
    // Padding bytes are zero, so absorbing the whole padded word is exact.
    return word(w);
  }

  /// Final RFC 1071 checksum (complemented, big-endian word order).
  std::uint16_t result() const noexcept {
    std::uint64_t s = sum_;
    while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
    const auto le = static_cast<std::uint16_t>(s);
    return static_cast<std::uint16_t>(~static_cast<std::uint16_t>((le << 8) | (le >> 8)));
  }

 private:
  std::uint64_t sum_ = 0;
};

/// ChaCha20 encrypt/decrypt stage (XOR keystream), mutating.
///
/// On a partial tail the keystream bytes beyond the data are masked off so
/// downstream stages (e.g. a checksum of the plaintext) still see zero
/// padding.
class EncryptStage {
 public:
  static constexpr bool kMutates = true;

  EncryptStage(const ChaChaKey& key, std::uint32_t counter) noexcept
      : ks_(key, counter) {}

  std::uint64_t word(std::uint64_t w) noexcept { return w ^ ks_.next_word(); }

  std::uint64_t tail(std::uint64_t w, std::size_t n) noexcept {
    return (w ^ ks_.next_word()) & tail_mask(n);
  }

 private:
  ChaChaKeystream ks_;
};

/// Presentation byte-order stage: swaps each 32-bit integer in the word
/// (network <-> host conversion of an integer array — the heart of the XDR
/// and LWTS decode of the paper's §4 integer workload). Mutating.
///
/// Requires the data to be a multiple of 4 bytes; a tail of 1-3 bytes is
/// passed through unchanged (presentation layers operate on whole
/// elements).
class Byteswap32Stage {
 public:
  static constexpr bool kMutates = true;

  std::uint64_t word(std::uint64_t w) noexcept {
    const auto lo = byteswap32(static_cast<std::uint32_t>(w));
    const auto hi = byteswap32(static_cast<std::uint32_t>(w >> 32));
    return (std::uint64_t{hi} << 32) | lo;
  }

  std::uint64_t tail(std::uint64_t w, std::size_t n) noexcept {
    if (n == 4) return byteswap32(static_cast<std::uint32_t>(w));
    return w;  // not a whole element: pass through
  }
};

/// Application-read stage: models the application consuming the data as it
/// arrives (the paper's point that presentation must run in application
/// context). Sums all 32-bit elements — a stand-in for "use the values".
/// Non-mutating.
class AppSumStage {
 public:
  static constexpr bool kMutates = false;

  std::uint64_t word(std::uint64_t w) noexcept {
    total_ += static_cast<std::uint32_t>(w);
    total_ += static_cast<std::uint32_t>(w >> 32);
    return w;
  }

  std::uint64_t tail(std::uint64_t w, std::size_t n) noexcept {
    if (n >= 4) total_ += static_cast<std::uint32_t>(w);
    if (n == 8) total_ += static_cast<std::uint32_t>(w >> 32);
    return w;
  }

  std::uint64_t result() const noexcept { return total_; }

 private:
  std::uint64_t total_ = 0;
};

/// CRC-32 stage (slice-by-8 per word), non-mutating. The strong-integrity
/// alternative to ChecksumStage in the fused receive path; result()
/// matches crc32()/crc32_slice8() exactly (tested property).
class Crc32Stage {
 public:
  static constexpr bool kMutates = false;

  std::uint64_t word(std::uint64_t w) noexcept {
    state_ = crc32_update_word(state_, w);
    return w;
  }

  std::uint64_t tail(std::uint64_t w, std::size_t n) noexcept {
    state_ = crc32_update_tail(state_, w, n);
    return w;
  }

  std::uint32_t result() const noexcept { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

static_assert(WordStage<ChecksumStage>);
static_assert(WordStage<EncryptStage>);
static_assert(WordStage<Byteswap32Stage>);
static_assert(WordStage<AppSumStage>);
static_assert(WordStage<Crc32Stage>);

}  // namespace ngp
