// kernels_common.h — scalar helpers shared by every SIMD tier.
//
// The vector kernels (kernels_vec.inc) process whole vector chunks and then
// fall back to these helpers for the remainder. The helpers reproduce the
// exact conventions of the scalar ILP stages (ilp/stages.h): little-endian
// 16-bit word order for the Internet sum, zero-padded partial words, the
// Byteswap32Stage partial-tail rule, and the ChaCha20 state layout — so a
// vector tier that uses them for its tail is byte-identical to the scalar
// tier by construction.
#pragma once

#include <cstring>

#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "util/bytes.h"

namespace ngp::simd::detail {

/// Exact (carry-free, 64-bit) sum of the four LE 16-bit halves of a word.
/// Congruent mod 0xFFFF to the end-around-carry sum ChecksumStage keeps,
/// so finish_inet() below folds both to the same canonical residue.
inline std::uint64_t sum16_word(std::uint64_t w) noexcept {
  return (w & 0xFFFF) + ((w >> 16) & 0xFFFF) + ((w >> 32) & 0xFFFF) +
         (w >> 48);
}

/// Continues an exact LE 16-bit-word sum over the last bytes of a buffer
/// (whole 8-byte words, then a zero-padded tail). Read-only.
inline std::uint64_t absorb_tail(const std::uint8_t* p, std::size_t n,
                                 std::uint64_t sum) noexcept {
  while (n >= 8) {
    sum += sum16_word(load_u64_le(p));
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    sum += sum16_word(w);
  }
  return sum;
}

/// Folds an exact 16-bit-word sum to the RFC 1071 checksum exactly the way
/// ChecksumStage::result() does: fold, swap out of LE word space,
/// complement.
inline std::uint16_t finish_inet(std::uint64_t sum) noexcept {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const auto le = static_cast<std::uint16_t>(sum);
  return static_cast<std::uint16_t>(
      ~static_cast<std::uint16_t>((le << 8) | (le >> 8)));
}

/// Swaps both 32-bit halves of an 8-byte word (Byteswap32Stage::word).
inline std::uint64_t bswap32_pair(std::uint64_t w) noexcept {
  const auto lo = byteswap32(static_cast<std::uint32_t>(w));
  const auto hi = byteswap32(static_cast<std::uint32_t>(w >> 32));
  return (std::uint64_t{hi} << 32) | lo;
}

/// Scalar remainder of the fused [xor] + checksum [+ byteswap] kernels:
/// processes the last `n` bytes at `p`, XORing the keystream at `ks` (the
/// bytes that belong to p[0..n)) when it is not null, and returns the
/// extended exact sum. Replicates ilp_fused(KeystreamStage?, ChecksumStage,
/// Byteswap32Stage?) bit for bit: keystream masked to the data length,
/// checksum over the zero-padded plaintext word, partial tails byteswapped
/// only when exactly 4 bytes remain.
inline std::uint64_t fused_tail(const std::uint8_t* ks, std::uint8_t* p,
                                std::size_t n, std::uint64_t sum,
                                bool swap) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = load_u64_le(p + i);
    if (ks != nullptr) w ^= load_u64_le(ks + i);
    sum += sum16_word(w);
    if (swap) w = bswap32_pair(w);
    store_u64_le(p + i, w);
  }
  const std::size_t rem = n - i;
  if (rem > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, rem);
    if (ks != nullptr) {
      std::uint64_t kw = 0;  // only rem keystream bytes: padding stays 0
      std::memcpy(&kw, ks + i, rem);
      w ^= kw;
    }
    sum += sum16_word(w);
    if (swap && rem == 4) w = byteswap32(static_cast<std::uint32_t>(w));
    std::memcpy(p + i, &w, rem);
  }
  return sum;
}

/// Rebuilds the ChaCha20 initial state ("expand 32-byte k" | key | counter
/// | nonce, all LE) — the same layout crypto/chacha20.cpp::init_state uses.
inline void chacha_state(std::uint32_t s[16], const ChaChaKey& k,
                         std::uint32_t counter) noexcept {
  s[0] = 0x61707865;
  s[1] = 0x3320646e;
  s[2] = 0x79622d32;
  s[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) std::memcpy(&s[4 + i], k.key.data() + 4 * i, 4);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) {
    std::memcpy(&s[13 + i], k.nonce.data() + 4 * i, 4);
  }
}

}  // namespace ngp::simd::detail
