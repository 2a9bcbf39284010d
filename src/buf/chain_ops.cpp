#include "buf/chain_ops.h"

#include <array>

#include "checksum/checksum.h"
#include "ilp/engine.h"
#include "simd/dispatch.h"

namespace ngp::buf {

namespace {

/// Decrypts a segment that begins at ADU byte offset `pos`, absorbing the
/// plaintext into `acc`. Scalar prefix to the next 64-byte keystream block
/// boundary, then the fused tier kernel from block (pos+prefix)/64.
void decrypt_segment(const ChaChaKey& key, std::size_t pos, MutableBytes seg,
                     InternetChecksum& acc) {
  const simd::KernelTable& k = simd::kernels();
  std::size_t intra = pos % 64;
  std::size_t done = 0;
  if (intra != 0) {
    std::array<std::uint8_t, 64> ks;
    chacha20_block(key, static_cast<std::uint32_t>(pos / 64), ks);
    const std::size_t prefix = std::min<std::size_t>(64 - intra, seg.size());
    for (std::size_t i = 0; i < prefix; ++i) seg[i] ^= ks[intra + i];
    acc.add(seg.subspan(0, prefix));
    done = prefix;
  }
  if (done < seg.size()) {
    MutableBytes bulk = seg.subspan(done);
    const std::uint16_t sum = k.decrypt_internet_checksum(
        key, static_cast<std::uint32_t>((pos + done) / 64), bulk);
    acc.combine(sum, bulk.size());
  }
}

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

/// XORs `bytes` (at chain byte offset `pos`) with the keystream, handling
/// 64-byte block crossings — the scalar path for sub-unit remainders the
/// fused kernels cannot take.
void scalar_decrypt(const ChaChaKey& key, std::size_t pos, MutableBytes bytes) {
  std::array<std::uint8_t, 64> ks;
  std::size_t have = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t p = pos + i;
    if (p / 64 != have) {
      have = p / 64;
      chacha20_block(key, static_cast<std::uint32_t>(have), ks);
    }
    bytes[i] ^= ks[p % 64];
  }
}

/// Absorbs `bytes` into a running CRC-32, a word at a time. The state
/// carries across calls, so a chain's segments fold in order with no
/// combine step.
void crc_absorb(Crc32Stage& ck, ConstBytes bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) ck.word(load_u64_le(p));
  if (n > 0) ck.tail(ngp::detail::load_tail(p, n), n);
}

/// The fused CRC-32 walk: per segment, a scalar head up to the next
/// keystream block (decrypt) or swap unit (byteswap) boundary, the ILP
/// word loop over the aligned body, then a scalar remainder. Stage order
/// is the flat executor's: decrypt, CRC of the plaintext, byteswap.
template <bool kDecrypt, bool kSwap>
std::uint32_t crc_walk(const ChaChaKey* key, BufChain& c) {
  Crc32Stage ck;
  const std::size_t region_end = swap_region_end(c.size());
  SwapCursor cur;
  const auto scalar = [&](MutableBytes bytes, std::size_t at) {
    if constexpr (kDecrypt) scalar_decrypt(*key, at, bytes);
    crc_absorb(ck, bytes);
    if constexpr (kSwap) cur.feed(bytes, at, region_end);
  };
  constexpr std::size_t kAlign = kDecrypt ? 64 : kSwap ? 4 : 1;
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    std::size_t done = 0;
    if (pos % kAlign != 0 && !seg.empty()) {
      done = std::min<std::size_t>(kAlign - pos % kAlign, seg.size());
      scalar(seg.subspan(0, done), pos);
    }
    std::size_t bulk = seg.size() - done;
    if constexpr (kSwap) {
      const std::size_t in_region =
          region_end > pos + done ? region_end - (pos + done) : 0;
      bulk = std::min(bulk, in_region) & ~std::size_t{3};
    }
    if (bulk != 0) {
      MutableBytes body = seg.subspan(done, bulk);
      if constexpr (kDecrypt) {
        EncryptStage dec(*key, static_cast<std::uint32_t>((pos + done) / 64));
        if constexpr (kSwap) {
          Byteswap32Stage swap;
          ilp_fused(body, body, dec, ck, swap);
        } else {
          ilp_fused(body, body, dec, ck);
        }
      } else if constexpr (kSwap) {
        Byteswap32Stage swap;
        ilp_fused(body, body, ck, swap);
      } else {
        crc_absorb(ck, body);  // nothing to write: load-only
      }
      done += bulk;
    }
    if (done < seg.size()) scalar(seg.subspan(done), pos + done);
    pos += seg.size();
  });
  return ck.result();
}

}  // namespace

std::uint32_t chain_checksum(ChecksumKind kind, const BufChain& c) {
  switch (kind) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kInternet:
      return chain_internet_checksum(c);
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
      Crc32Stage ck;
      c.for_each([&](ConstBytes seg) { crc_absorb(ck, seg); });
      return ck.result();
    }
  }
  return 0;
}

std::uint32_t chain_fused_crc32(BufChain& c, const ChaChaKey* decrypt_key,
                                bool byteswap) {
  if (decrypt_key != nullptr) {
    return byteswap ? crc_walk<true, true>(decrypt_key, c)
                    : crc_walk<true, false>(decrypt_key, c);
  }
  return byteswap ? crc_walk<false, true>(nullptr, c)
                  : crc_walk<false, false>(nullptr, c);
}

std::uint16_t chain_internet_checksum(const BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  InternetChecksum acc;
  c.for_each([&](ConstBytes seg) {
    if (seg.empty()) return;
    acc.combine(k.internet_checksum(seg), seg.size());
  });
  return acc.finish();
}

std::uint16_t chain_decrypt_internet_checksum(const ChaChaKey& key,
                                              BufChain& c) {
  InternetChecksum acc;
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    if (!seg.empty()) decrypt_segment(key, pos, seg, acc);
    pos += seg.size();
  });
  return acc.finish();
}

void chain_chacha20_xor(const ChaChaKey& key, BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    std::size_t intra = pos % 64;
    std::size_t done = 0;
    if (intra != 0 && !seg.empty()) {
      std::array<std::uint8_t, 64> ks;
      chacha20_block(key, static_cast<std::uint32_t>(pos / 64), ks);
      const std::size_t prefix = std::min<std::size_t>(64 - intra, seg.size());
      for (std::size_t i = 0; i < prefix; ++i) seg[i] ^= ks[intra + i];
      done = prefix;
    }
    if (done < seg.size()) {
      k.chacha20_xor(key, static_cast<std::uint32_t>((pos + done) / 64),
                     seg.subspan(done));
    }
    pos += seg.size();
  });
}

std::uint16_t chain_copy_internet_checksum(const BufChain& c,
                                           MutableBytes dst) {
  const simd::KernelTable& k = simd::kernels();
  InternetChecksum acc;
  std::size_t off = 0;
  c.for_each([&](ConstBytes seg) {
    if (seg.empty()) return;
    const std::uint16_t sum =
        k.copy_internet_checksum(seg, dst.subspan(off, seg.size()));
    acc.combine(sum, seg.size());
    off += seg.size();
  });
  return acc.finish();
}

void chain_byteswap32(BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  const std::size_t region_end = swap_region_end(c.size());
  SwapCursor cur;
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    std::size_t done = 0;
    // Scalar head: completes a unit straddling in from the previous segment.
    if (pos % 4 != 0 && !seg.empty()) {
      done = std::min<std::size_t>(4 - pos % 4, seg.size());
      cur.feed(seg.subspan(0, done), pos, region_end);
    }
    // Unit-aligned bulk inside the swap region: the tier kernel.
    const std::size_t in_region =
        region_end > pos + done ? region_end - (pos + done) : 0;
    const std::size_t bulk =
        std::min(seg.size() - done, in_region) & ~std::size_t{3};
    if (bulk != 0) {
      k.byteswap32(seg.subspan(done, bulk));
      done += bulk;
    }
    // Remainder: the head of a straddling unit and/or the pass-through tail.
    if (done < seg.size()) cur.feed(seg.subspan(done), pos + done, region_end);
    pos += seg.size();
  });
}

std::uint16_t chain_checksum_byteswap(BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  const std::size_t region_end = swap_region_end(c.size());
  InternetChecksum acc;
  SwapCursor cur;
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    std::size_t done = 0;
    if (pos % 4 != 0 && !seg.empty()) {
      done = std::min<std::size_t>(4 - pos % 4, seg.size());
      acc.add(seg.subspan(0, done));  // the checksum sees pre-swap bytes
      cur.feed(seg.subspan(0, done), pos, region_end);
    }
    const std::size_t in_region =
        region_end > pos + done ? region_end - (pos + done) : 0;
    const std::size_t bulk =
        std::min(seg.size() - done, in_region) & ~std::size_t{3};
    if (bulk != 0) {
      MutableBytes body = seg.subspan(done, bulk);
      acc.combine(k.checksum_byteswap(body), body.size());
      done += bulk;
    }
    if (done < seg.size()) {
      MutableBytes rest = seg.subspan(done);
      acc.add(rest);
      cur.feed(rest, pos + done, region_end);
    }
    pos += seg.size();
  });
  return acc.finish();
}

std::uint16_t chain_decrypt_checksum_byteswap(const ChaChaKey& key,
                                              BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  const std::size_t region_end = swap_region_end(c.size());
  InternetChecksum acc;
  SwapCursor cur;
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    std::size_t done = 0;
    // Scalar keystream prefix to the next 64-byte block boundary (which is
    // also a 4-byte swap boundary, so the fused kernel can take over).
    if (pos % 64 != 0 && !seg.empty()) {
      done = std::min<std::size_t>(64 - pos % 64, seg.size());
      MutableBytes prefix = seg.subspan(0, done);
      scalar_decrypt(key, pos, prefix);
      acc.add(prefix);
      cur.feed(prefix, pos, region_end);
    }
    const std::size_t in_region =
        region_end > pos + done ? region_end - (pos + done) : 0;
    const std::size_t bulk =
        std::min(seg.size() - done, in_region) & ~std::size_t{3};
    if (bulk != 0) {
      MutableBytes body = seg.subspan(done, bulk);
      acc.combine(k.decrypt_checksum_byteswap(
                      key, static_cast<std::uint32_t>((pos + done) / 64), body),
                  body.size());
      done += bulk;
    }
    if (done < seg.size()) {
      MutableBytes rest = seg.subspan(done);
      scalar_decrypt(key, pos + done, rest);
      acc.add(rest);
      cur.feed(rest, pos + done, region_end);
    }
    pos += seg.size();
  });
  return acc.finish();
}

}  // namespace ngp::buf
