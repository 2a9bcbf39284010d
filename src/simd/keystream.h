// keystream.h — a ChaCha20 keystream run ahead of the data, and the
// cipher pass that draws it (ngp::simd).
//
// The cipher's keystream is positional: byte i of a pass XORs byte i of
// the stream, whatever pieces the data is cut into. KeystreamCursor keeps
// the generator apart from the cutting: it fills a stack buffer with the
// tier's chacha20_keystream, whole vector batches at a time, and hands
// the bytes out in stream order; every piece of data takes the next
// bytes and runs one (data, keystream) kernel over them. The pass walk
// (buf/chain_ops.cpp) draws one cursor across a chain's segments, and
// chacha20_xor below draws one for the sender's encryption, a pass that
// only ciphers, so every ChaCha20 XOR in the library runs this generator.
#pragma once

#include <algorithm>
#include <cstdint>

#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "util/bytes.h"

namespace ngp::simd {

/// The keystream of one pass, block 0 at the pass's byte 0. A refill
/// covers what the caller asks for next, rounded up to whole kBatch-byte
/// batches (sixteen blocks: one AVX-512 step, two AVX2 steps, four
/// SSE/NEON steps), at most kCapacity bytes and never past the block that
/// holds the pass's last byte; the next take() starts on whatever the
/// last refill left over.
/// So wherever the data is cut, no block is computed twice, none alone at
/// a seam, and a long piece costs one generator and one kernel call per
/// kCapacity bytes.
class KeystreamCursor {
 public:
  static constexpr std::size_t kBatch = 1024;
  static constexpr std::size_t kCapacity = 2 * kBatch;

  /// `total` is the pass's length in bytes. `key` may be null for a pass
  /// that does not decrypt; take() must then never be called.
  KeystreamCursor(const KernelTable& k, const ChaChaKey* key,
                  std::size_t total) noexcept
      : k_(k), key_(key), left_(total) {}

  /// The next 1..want (want > 0) keystream bytes: what the last refill
  /// left, or a new refill sized for `want` when none is left.
  ConstBytes take(std::size_t want) noexcept {
    if (at_ == have_) refill(want);
    const std::size_t n = std::min(want, have_ - at_);
    const ConstBytes out{buf_ + at_, n};
    at_ += n;
    return out;
  }

  /// Runs kernel(keystream, piece) over `data` in stream order, one piece
  /// per take(): each piece is as long as the keystream in hand.
  template <typename Kernel>
  void pieces(MutableBytes data, Kernel&& kernel) noexcept {
    while (!data.empty()) {
      const ConstBytes ks = take(data.size());
      kernel(ks, data.first(ks.size()));
      data = data.subspan(ks.size());
    }
  }

 private:
  void refill(std::size_t want) noexcept {
    const std::size_t batches = (want + kBatch - 1) & ~(kBatch - 1);
    const std::size_t blocks = (left_ + 63) & ~std::size_t{63};
    have_ = std::min({kCapacity, batches, blocks});
    k_.chacha20_keystream(*key_, counter_, MutableBytes{buf_, have_});
    counter_ += static_cast<std::uint32_t>(have_ / 64);
    left_ -= std::min(left_, have_);
    at_ = 0;
  }

  const KernelTable& k_;
  const ChaChaKey* key_;
  std::size_t left_;  ///< bytes of the pass not yet covered by a refill
  std::uint32_t counter_ = 0;
  std::size_t have_ = 0, at_ = 0;
  alignas(64) std::uint8_t buf_[kCapacity];
};

/// ChaCha20-XORs `data` in place, block counter 0 at byte 0: the cipher
/// of the sender's encryption. The cursor runs the tier's generator a
/// refill ahead and xor_keystream applies it, as the chain walk's
/// layered decrypt does over a chain of one segment.
inline void chacha20_xor(const KernelTable& k, const ChaChaKey& key,
                         MutableBytes data) noexcept {
  KeystreamCursor ks(k, &key, data.size());
  ks.pieces(data, k.xor_keystream);
}

}  // namespace ngp::simd
