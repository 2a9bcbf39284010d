// kernels_neon.cpp — 16-byte vector tier for aarch64 (NEON is baseline on
// AArch64, so no extra -m flags and no runtime feature check are needed).
#include <algorithm>
#include <cstring>
#include <utility>

#include "checksum/crc32.h"
#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "simd/kernels_common.h"
#include "util/bytes.h"

#if defined(__aarch64__)

#define NGP_SIMD_NS neon
#define NGP_SIMD_VEC_BYTES 16
#define NGP_SIMD_TIER KernelTier::kNeon
#define NGP_SIMD_TIER_NAME "neon"
#include "simd/kernels_vec.inc"

#endif  // aarch64
