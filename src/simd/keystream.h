// keystream.h — a ChaCha20 keystream run ahead of the data, and the fused
// passes that draw it (ngp::simd).
//
// The cipher's keystream is positional: byte i of a pass XORs byte i of
// the stream, whatever pieces the data is cut into. KeystreamCursor keeps
// the generator apart from the cutting: it fills a stack buffer with the
// tier's chacha20_keystream, whole vector batches at a time, and hands
// the bytes out in stream order; every piece of data takes the next
// bytes and runs one (data, keystream) kernel over them. The chain walk
// (buf/chain_ops.cpp) draws one cursor across all of a chain's segments,
// and the flat executor (decrypt_internet_checksum below, and the CRC-32
// pass in ilp/pipeline.cpp) draws one over a single buffer, so both run
// the same generator and kernel loop. crc32_fused is the CRC-32 plans'
// piece loop that both executors share.
#pragma once

#include <algorithm>
#include <cstdint>

#include "checksum/internet.h"
#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "util/bytes.h"

namespace ngp::simd {

/// The keystream of one pass, block 0 at the pass's byte 0. A refill
/// covers what the caller asks for next, rounded up to whole kBatch-byte
/// batches (eight blocks: one AVX2 step, two SSE/NEON steps), at most
/// kCapacity bytes and never past the block that holds the pass's last
/// byte; the next take() starts on whatever the last refill left over.
/// So wherever the data is cut, no block is computed twice, none alone at
/// a seam, and a long piece costs one generator and one kernel call per
/// kCapacity bytes.
class KeystreamCursor {
 public:
  static constexpr std::size_t kBatch = 512;
  static constexpr std::size_t kCapacity = 4 * kBatch;

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

/// The longest piece a fused CRC-32 pass hands to one kernel call: one
/// cursor refill, so a decrypting pass is cut no further, and short
/// enough that byteswap32 finds in L1 what crc32 just loaded.
inline constexpr std::size_t kCrcPiece = KeystreamCursor::kCapacity;

/// The fused CRC-32 pass over `data`, kCrcPiece bytes at a time, in stage
/// order: XOR `keystream` in when it is not empty (it then covers the
/// data), continue the raw CRC-32 `state` over the plaintext with the
/// tier's crc32, then byteswap32 when `byteswap` is set. Returns the new
/// state. Each piece stays in L1 from the CRC's loads to the swap's
/// stores, so the pass is one pass over memory. A swapping caller cuts
/// its data on 4-byte swap units; pieces are whole 8-byte words but the
/// last, so the swap's tail rule holds as over the whole span.
inline std::uint32_t crc32_fused(const KernelTable& k, std::uint32_t state,
                                 ConstBytes keystream, MutableBytes data,
                                 bool byteswap) noexcept {
  for (std::size_t at = 0; at < data.size(); at += kCrcPiece) {
    const MutableBytes piece =
        data.subspan(at, std::min(kCrcPiece, data.size() - at));
    if (!keystream.empty()) k.xor_keystream(keystream.subspan(at), piece);
    state = k.crc32(state, piece);
    if (byteswap) k.byteswap32(piece);
  }
  return state;
}

/// The flat fused decrypt pass over one buffer: ChaCha20-decrypts `data`
/// in place (block counter 0 at byte 0) and returns the Internet checksum
/// of the plaintext, then byte-swaps each 32-bit unit when `byteswap` is
/// set. Bit-identical to ilp_fused over EncryptStage, ChecksumStage and,
/// with `byteswap`, Byteswap32Stage.
inline std::uint16_t decrypt_internet_checksum(const KernelTable& k,
                                               const ChaChaKey& key,
                                               MutableBytes data,
                                               bool byteswap) noexcept {
  const auto kernel = byteswap ? k.xor_checksum_byteswap : k.xor_internet_checksum;
  KeystreamCursor ks(k, &key, data.size());
  InternetChecksum acc;
  ks.pieces(data, [&](ConstBytes stream, MutableBytes piece) {
    acc.combine(kernel(stream, piece), piece.size());
  });
  return acc.finish();
}

}  // namespace ngp::simd
