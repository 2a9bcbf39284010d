#include "buf/chain_ops.h"

#include <algorithm>
#include <cassert>

#include "checksum/checksum.h"
#include "simd/dispatch.h"
#include "simd/keystream.h"

namespace ngp::buf {

namespace {

/// End of the byteswap region for an n-byte buffer, matching the flat
/// Byteswap32Stage tail rule exactly: whole 8-byte words swap both 32-bit
/// halves, an exactly-4-byte tail swaps, any other tail (1-3 or 5-7
/// bytes) passes through unchanged. Always a multiple of 4.
std::size_t swap_region_end(std::size_t n) {
  const std::size_t r = n % 8;
  return r == 4 ? n : n - r;
}

/// Swaps 32-bit units whose bytes may be scattered across segments: bytes
/// are fed in chain order, pointers to the first three bytes of the
/// in-flight unit are held until its fourth byte arrives, then the unit is
/// reversed through the pointers. Bytes at or past the swap-region end are
/// ignored (the flat kernels' pass-through tail).
struct SwapCursor {
  std::uint8_t* pend[3] = {};
  std::size_t filled = 0;

  void feed(MutableBytes bytes, std::size_t pos, std::size_t region_end) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (pos + i >= region_end) return;
      if (filled == 3) {
        std::swap(*pend[0], bytes[i]);
        std::swap(*pend[1], *pend[2]);
        filled = 0;
      } else {
        pend[filled++] = &bytes[i];
      }
    }
  }
};

// Sum policies for walk(). Each names the kernel for a (decrypt, swap)
// pair — run over one piece of a segment with that piece's keystream
// (empty when not decrypting) — how a scalar piece is absorbed, and the
// widened result.

/// No checksum: the layered decrypt and byteswap passes.
struct NoSum {
  template <bool kDecrypt, bool kSwap>
  void body(const simd::KernelTable& k, ConstBytes ks, MutableBytes b) {
    if constexpr (kDecrypt) k.xor_keystream(ks, b);
    if constexpr (kSwap) k.byteswap32(b);
  }
  void absorb(ConstBytes) {}
  std::uint32_t result() const { return 0; }
};

/// RFC 1071: the tier's fused kernel per piece, folded with combine.
struct InternetSum {
  InternetChecksum acc;

  template <bool kDecrypt, bool kSwap>
  void body(const simd::KernelTable& k, ConstBytes ks, MutableBytes b) {
    std::uint16_t s = 0;
    if constexpr (kDecrypt && kSwap) {
      s = k.xor_checksum_byteswap(ks, b);
    } else if constexpr (kDecrypt) {
      s = k.xor_internet_checksum(ks, b);
    } else {
      s = k.checksum_byteswap(b);
    }
    acc.combine(s, b.size());
  }
  void absorb(ConstBytes b) { acc.add(b); }
  std::uint32_t result() const { return acc.finish(); }
};

/// CRC-32: the tier's crc32 then byteswap32 per piece of at most kPiece
/// bytes, so the checksum absorbs the plaintext before the swap and the
/// swap finds in L1 what crc32 just loaded: one pass over memory. The raw
/// state carries across pieces, so no combine step exists.
struct Crc32Sum {
  /// One cursor refill: a decrypting body is one piece, XORed whole
  /// first. A body starts on a swap unit and every piece but its last is
  /// whole 8-byte words, so the swap's tail rule holds as over the body.
  static constexpr std::size_t kPiece = simd::KeystreamCursor::kCapacity;

  std::uint32_t state = simd::kCrc32Init;

  template <bool kDecrypt, bool kSwap>
  void body(const simd::KernelTable& k, ConstBytes ks, MutableBytes b) {
    if constexpr (kDecrypt) k.xor_keystream(ks, b);
    for (std::size_t at = 0; at < b.size(); at += kPiece) {
      const MutableBytes piece = b.subspan(at, std::min(kPiece, b.size() - at));
      state = k.crc32(state, piece);
      if constexpr (kSwap) k.byteswap32(piece);
    }
  }
  void absorb(ConstBytes b) { state = crc32_update(state, b); }
  std::uint32_t result() const { return state ^ simd::kCrc32Init; }
};

/// The one writing pass. Each segment runs Sum's kernel over its body,
/// piece by piece as the keystream cursor's refills allow when decrypting
/// (the whole body otherwise). With byteswap, the body starts on a 4-byte
/// swap unit and ends inside the swap region; the bytes around it (a head
/// of up to 3 bytes, a tail of a split unit or past the region) take the
/// scalar path, where a SwapCursor carries a unit split by a segment
/// boundary. Scalar pieces keep the stage order: decrypt, checksum,
/// byteswap. When decrypting, every byte, in a kernel piece or a scalar
/// one, takes its keystream from the one cursor in chain order.
template <typename Sum, bool kDecrypt, bool kSwap>
std::uint32_t walk(const ChaChaKey* key, BufChain& c) {
  static_assert(kDecrypt || kSwap, "a pass that writes nothing is a checksum");
  const simd::KernelTable& k = simd::kernels();
  Sum sum;
  simd::KeystreamCursor ks(k, key, c.size());
  const std::size_t region_end = swap_region_end(c.size());
  SwapCursor cur;
  const auto scalar = [&](MutableBytes bytes, std::size_t at) {
    if constexpr (kDecrypt) ks.pieces(bytes, k.xor_keystream);
    sum.absorb(bytes);
    if constexpr (kSwap) cur.feed(bytes, at, region_end);
  };
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    std::size_t done = 0;
    std::size_t end = seg.size();
    if constexpr (kSwap) {
      done = std::min((4 - pos % 4) % 4, seg.size());
      if (done != 0) scalar(seg.first(done), pos);
      const std::size_t in_region =
          region_end > pos + done ? region_end - (pos + done) : 0;
      end = done + (std::min(seg.size() - done, in_region) & ~std::size_t{3});
    }
    const MutableBytes body = seg.subspan(done, end - done);
    if constexpr (kDecrypt) {
      ks.pieces(body, [&](ConstBytes stream, MutableBytes piece) {
        sum.template body<kDecrypt, kSwap>(k, stream, piece);
      });
    } else if (!body.empty()) {
      sum.template body<kDecrypt, kSwap>(k, {}, body);
    }
    if (end < seg.size()) scalar(seg.subspan(end), pos + end);
    pos += seg.size();
  });
  return sum.result();
}

template <typename Sum>
std::uint32_t walk_with(const ChaChaKey* key, bool byteswap, BufChain& c) {
  if (key == nullptr) return walk<Sum, false, true>(nullptr, c);
  return byteswap ? walk<Sum, true, true>(key, c)
                  : walk<Sum, true, false>(key, c);
}

}  // namespace

std::uint32_t chain_checksum(ChecksumKind kind, const BufChain& c) {
  switch (kind) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kInternet: {
      const simd::KernelTable& k = simd::kernels();
      InternetChecksum acc;
      c.for_each([&](ConstBytes seg) {
        if (!seg.empty()) acc.combine(k.internet_checksum(seg), seg.size());
      });
      return acc.finish();
    }
    case ChecksumKind::kFletcher32: {
      Fletcher32 f;
      c.for_each([&](ConstBytes seg) { f.add(seg); });
      return f.finish();
    }
    case ChecksumKind::kAdler32: {
      std::uint32_t state = 1;
      c.for_each([&](ConstBytes seg) { state = adler32_continue(state, seg); });
      return state;
    }
    case ChecksumKind::kCrc32: {
      const simd::KernelTable& k = simd::kernels();
      std::uint32_t state = simd::kCrc32Init;
      c.for_each([&](ConstBytes seg) { state = k.crc32(state, seg); });
      return state ^ simd::kCrc32Init;
    }
  }
  return 0;
}

std::uint32_t chain_pass(BufChain& c, const ChaChaKey* decrypt,
                         ChecksumKind sum, bool byteswap) {
  if (decrypt == nullptr && !byteswap) return chain_checksum(sum, c);
  switch (sum) {
    case ChecksumKind::kInternet:
      return walk_with<InternetSum>(decrypt, byteswap, c);
    case ChecksumKind::kCrc32:
      return walk_with<Crc32Sum>(decrypt, byteswap, c);
    default:
      assert(sum == ChecksumKind::kNone && "no body kernel for this sum");
      return walk_with<NoSum>(decrypt, byteswap, c);
  }
}

}  // namespace ngp::buf
