// dispatch.h — runtime-dispatched SIMD manipulation kernels (ngp::simd).
//
// §4's thesis is that data-manipulation cost is memory passes, not
// instructions; the ILP templates (ilp/engine.h) fuse the passes, and this
// layer makes each fused pass as wide as the host allows — the modern
// analogue of the paper's "hand-coded unrolled loop" tier. One KernelTable
// per tier (scalar / SSE-SSSE3 / AVX2+PCLMUL / NEON) is compiled into the
// library; the best tier the CPU supports is selected once at startup via
// cpuid, overridable with the NGP_FORCE_KERNEL_TIER environment variable
// (scalar|sse|avx2|neon|best) for testing, or programmatically with
// set_active_tier() for in-process tier sweeps (benches, property tests).
//
// Invariants every tier must uphold (pinned by tests/simd_test.cpp):
//   * byte-identical outputs and identical checksum results vs the scalar
//     tier for every size and alignment;
//   * the obs::CostAccount ledger is charged by CALLERS at the analytic §4
//     pass counts — kernels never touch the ledger, so recorded costs are
//     tier-independent by construction (the ledger measures memory passes,
//     not instructions).
#pragma once

#include <cstdint>

#include "crypto/chacha20.h"
#include "util/bytes.h"

namespace ngp::simd {

enum class KernelTier : std::uint8_t {
  kScalar = 0,  ///< portable 64-bit word loops (ilp/kernels.h, ilp/engine.h)
  kSse = 1,     ///< 16-byte vectors (x86 SSE2..SSSE3)
  kAvx2 = 2,    ///< 32-byte vectors + PCLMULQDQ CRC folding
  kNeon = 3,    ///< 16-byte vectors (aarch64)
};
inline constexpr std::size_t kKernelTierCount = 4;

/// One tier's kernel set. All function pointers are non-null in every
/// compiled-in table. Buffers may be arbitrarily aligned; src/dst of copy
/// kernels must not overlap; in-place kernels mutate their span directly.
struct KernelTable {
  KernelTier tier;
  const char* name;

  // --- single-manipulation kernels (one memory pass each) ---
  void (*copy)(ConstBytes src, MutableBytes dst);
  std::uint16_t (*internet_checksum)(ConstBytes data);  ///< RFC 1071, complemented
  std::uint32_t (*fletcher32)(ConstBytes data);
  std::uint32_t (*adler32)(ConstBytes data);
  std::uint32_t (*crc32)(ConstBytes data);  ///< IEEE 802.3 reflected
  void (*chacha20_xor)(const ChaChaKey& key, std::uint32_t counter,
                       MutableBytes data);
  /// Presentation decode: swap each 32-bit element. Byteswap32Stage
  /// semantics exactly — 8-byte words swap both halves; a final partial
  /// word swaps only when exactly 4 bytes remain, else passes through.
  void (*byteswap32)(MutableBytes data);

  // --- fused kernels (§6: the whole stage stack in ONE memory pass) ---
  // Byte effects and results are bit-identical to composing ilp_fused over
  // the matching stages (EncryptStage / ChecksumStage / Byteswap32Stage).
  std::uint16_t (*checksum_byteswap)(MutableBytes data);
  std::uint16_t (*decrypt_internet_checksum)(const ChaChaKey& key,
                                             std::uint32_t counter,
                                             MutableBytes data);
  std::uint16_t (*decrypt_checksum_byteswap)(const ChaChaKey& key,
                                             std::uint32_t counter,
                                             MutableBytes data);
};

/// The active table. First call resolves cpuid + NGP_FORCE_KERNEL_TIER;
/// thereafter a single atomic load. Safe from any thread.
const KernelTable& kernels() noexcept;

KernelTier active_tier() noexcept;

/// Best tier this host supports (ignores the env override).
KernelTier best_tier() noexcept;

/// The table for `tier`, or nullptr when the tier is not compiled in or
/// the CPU lacks the features it needs. tier_table(kScalar) never fails.
const KernelTable* tier_table(KernelTier tier) noexcept;

/// Switches the active table (benches/tests sweeping tiers in-process).
/// Returns false — leaving the active tier unchanged — if unsupported.
bool set_active_tier(KernelTier tier) noexcept;

const char* tier_name(KernelTier tier) noexcept;

}  // namespace ngp::simd
