// kernels_avx512.cpp — 64-byte vector tier for x86 (AVX-512 F/VL/BW).
//
// Compiled with -mavx512f -mavx512vl -mavx512bw (see simd/CMakeLists.txt),
// so the generic vector code lowers to zmm instructions: BW gives the
// 64-byte byte permute (vpshufb) the byteswaps use, and ChaCha20 rotates
// every lane with vprold. Selected at runtime only when cpuid reports
// those three features and everything the AVX2 tier needs, because its
// crc32 entry is the AVX2 tier's PCLMULQDQ fold, called across the TU
// boundary rather than compiled twice.
#include <algorithm>
#include <cstring>
#include <utility>

#include "checksum/crc32.h"
#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "simd/kernels_common.h"
#include "util/bytes.h"

#if defined(__x86_64__) || defined(__i386__)

namespace ngp::simd::avx2 {
/// The AVX2 tier's PCLMULQDQ fold (kernels_avx2.cpp).
std::uint32_t crc32_clmul(std::uint32_t state, ConstBytes data);
}

#define NGP_SIMD_NS avx512
#define NGP_SIMD_VEC_BYTES 64
#define NGP_SIMD_TIER KernelTier::kAvx512
#define NGP_SIMD_TIER_NAME "avx512"
#define NGP_SIMD_CRC32_FN avx2::crc32_clmul
#define NGP_SIMD_VEC_ROTATE
#include "simd/kernels_vec.inc"

#endif  // x86
