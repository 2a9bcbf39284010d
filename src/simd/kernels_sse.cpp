// kernels_sse.cpp — 16-byte vector tier for x86 (SSE2..SSSE3).
//
// Compiled with -mssse3 (see simd/CMakeLists.txt) so the generic vector
// code lowers to SSE instructions; selected at runtime only when cpuid
// reports ssse3. CRC-32 stays slice-by-8 here — PCLMULQDQ folding lives in
// the AVX2 tier.
#include <algorithm>
#include <cstring>
#include <utility>

#include "checksum/crc32.h"
#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "simd/kernels_common.h"
#include "util/bytes.h"

#if defined(__x86_64__) || defined(__i386__)

#define NGP_SIMD_NS sse
#define NGP_SIMD_VEC_BYTES 16
#define NGP_SIMD_TIER KernelTier::kSse
#define NGP_SIMD_TIER_NAME "sse"
#include "simd/kernels_vec.inc"

#endif  // x86
