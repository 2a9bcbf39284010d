// chacha20.h — ChaCha20 stream cipher (RFC 8439 core).
//
// The paper lists encryption among the six data-manipulation functions and
// cites the Autonet design that entwines session encryption with link-level
// processing (§6). ChaCha20 is the encryption stage of the ILP pipelines:
// as a stream cipher its keystream can be XORed word-by-word inside the
// fused loop, so the data is read exactly once while being copied,
// checksummed and deciphered together.
//
// This implementation exists for manipulation-cost realism in a simulator,
// not as a vetted cryptographic library.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace ngp {

/// ChaCha20 key (256-bit) and nonce (96-bit).
struct ChaChaKey {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
};

/// Encrypts/decrypts `data` in place (XOR keystream); symmetric operation.
/// `counter` is the initial 32-bit block counter (RFC 8439 layout).
void chacha20_xor(const ChaChaKey& k, std::uint32_t counter, MutableBytes data) noexcept;

/// Writes the keystream of blocks counter, counter+1, ... to `out`; a
/// partial last block is cut to out.size(). XORing it into data is
/// chacha20_xor(k, counter, data).
void chacha20_keystream(const ChaChaKey& k, std::uint32_t counter,
                        MutableBytes out) noexcept;

/// Streaming keystream generator for the ILP fused loops.
///
/// Produces the keystream 64-bit-word at a time so a fused pipeline can do
///     word = load(src); word ^= ks.next_word(); checksum(word); store(word)
/// in a single pass. Words are consumed strictly in order.
class ChaChaKeystream {
 public:
  ChaChaKeystream(const ChaChaKey& k, std::uint32_t counter) noexcept;

  /// Next 8 keystream bytes as a little-endian word.
  std::uint64_t next_word() noexcept {
    if (pos_ == 8) refill();
    return block_words_[pos_++];
  }

  /// Next single keystream byte (for tail handling).
  std::uint8_t next_byte() noexcept;

 private:
  void refill() noexcept;

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint64_t, 8> block_words_;  // one 64-byte block as words
  unsigned pos_ = 8;                          // forces refill on first use
  unsigned byte_pos_ = 0;                     // sub-word byte cursor
  std::uint64_t current_ = 0;
};

/// The raw ChaCha20 block function (exposed for tests against RFC 8439
/// vectors). Writes 64 keystream bytes for block `counter`.
void chacha20_block(const ChaChaKey& k, std::uint32_t counter,
                    std::array<std::uint8_t, 64>& out) noexcept;

}  // namespace ngp
