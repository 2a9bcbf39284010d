// kernels_avx2.cpp — 32-byte vector tier for x86 (AVX2), plus a
// PCLMULQDQ-folded CRC-32.
//
// Compiled with -mavx2 -mpclmul (see simd/CMakeLists.txt); selected at
// runtime only when cpuid reports both avx2 and pclmul. The CRC kernel is
// the classic carry-less-multiply fold-by-4 (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", the same constants
// zlib uses for the IEEE reflected polynomial). Like every tier's crc32
// entry it continues a raw state: the state seeds the first lane where a
// one-shot CRC would XOR in 0xFFFFFFFF, and inputs under 64 bytes and the
// last <64 bytes continue through ngp::crc32_update (slice-by-8), so the
// result is bit-identical to the other tiers for every state and length.
// The fused CRC-32 passes (buf/chain_ops.cpp) call it per piece of at
// most 2 KiB, ahead of the tier's byteswap32. The AVX-512 tier's crc32
// entry is this same function.
#include <algorithm>
#include <cstring>
#include <utility>

#include "checksum/crc32.h"
#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "simd/kernels_common.h"
#include "util/bytes.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ngp::simd::avx2 {

#if defined(__PCLMUL__) && defined(__SSE4_1__)

std::uint32_t crc32_clmul(std::uint32_t state, ConstBytes data) {
  const std::size_t len = data.size();
  if (len < 64) return crc32_update(state, data);  // folding needs 4 lanes
  const std::uint8_t* buf = data.data();
  const std::size_t vlen = len & ~std::size_t{63};

  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 32));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 48));
  // Fold the incoming state (reflected) into the first lane.
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));

  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const std::uint8_t* p = buf + 64;
  std::size_t n = vlen - 64;
  while (n >= 64) {
    const __m128i x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    const __m128i x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)));
    p += 64;
    n -= 64;
  }

  // Fold the four lanes down to one.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  __m128i x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  // Fold 128 bits to 64.
  const __m128i mask = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x0 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x0);

  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  x0 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask);
  x1 = _mm_clmulepi64_si128(x1, k5k0, 0x00);
  x1 = _mm_xor_si128(x1, x0);

  // Barrett reduction to 32 bits.
  const __m128i poly = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  x0 = _mm_and_si128(x1, mask);
  x0 = _mm_clmulepi64_si128(x0, poly, 0x10);
  x0 = _mm_and_si128(x0, mask);
  x0 = _mm_clmulepi64_si128(x0, poly, 0x00);
  x1 = _mm_xor_si128(x1, x0);

  // Continue the folded state over the last <64 bytes.
  return crc32_update(static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1)),
                      data.subspan(vlen));
}

#endif  // __PCLMUL__ && __SSE4_1__

}  // namespace ngp::simd::avx2

#define NGP_SIMD_NS avx2
#define NGP_SIMD_VEC_BYTES 32
#define NGP_SIMD_TIER KernelTier::kAvx2
#define NGP_SIMD_TIER_NAME "avx2"
#if defined(__PCLMUL__) && defined(__SSE4_1__)
#define NGP_SIMD_CRC32_FN crc32_clmul
#endif
#include "simd/kernels_vec.inc"

#endif  // x86
