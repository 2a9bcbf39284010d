// dispatch.cpp — tier detection and the active-table atomic.
//
// Selection happens once, on the first kernels() call: cpuid (via
// __builtin_cpu_supports) picks the best compiled-in tier the host
// supports, then NGP_FORCE_KERNEL_TIER may override it downward for
// testing. set_active_tier() swaps the table afterwards for in-process
// sweeps; callers in flight keep the table pointer they loaded, so a swap
// is safe at any time (tables are immutable statics).
#include "simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "checksum/checksum.h"

namespace ngp::simd {

namespace scalar {
extern const KernelTable kTable;
}
#if defined(__x86_64__) || defined(__i386__)
namespace sse {
extern const KernelTable kTable;
}
namespace avx2 {
extern const KernelTable kTable;
}
namespace avx512 {
extern const KernelTable kTable;
}
#endif
#if defined(__aarch64__)
namespace neon {
extern const KernelTable kTable;
}
#endif

namespace {

bool tier_supported(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case KernelTier::kSse:
      return __builtin_cpu_supports("ssse3") != 0;
    case KernelTier::kAvx2:
      // The AVX2 tier's CRC kernel folds with PCLMULQDQ, so both features
      // gate it together; avx2-without-pclmul hosts fall back to SSE.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
    case KernelTier::kAvx512:
      // 64-byte vectors with byte permutes (BW) and 128/256-bit forms
      // (VL); its crc32 is the AVX2 tier's fold, so the AVX2 gates hold too.
      return tier_supported(KernelTier::kAvx2) &&
             __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#endif
#if defined(__aarch64__)
    case KernelTier::kNeon:
      return true;  // NEON is architecturally guaranteed on AArch64
#endif
    default:
      return false;
  }
}

const KernelTable* table_for(KernelTier tier) noexcept {
  if (!tier_supported(tier)) return nullptr;
  switch (tier) {
    case KernelTier::kScalar:
      return &scalar::kTable;
#if defined(__x86_64__) || defined(__i386__)
    case KernelTier::kSse:
      return &sse::kTable;
    case KernelTier::kAvx2:
      return &avx2::kTable;
    case KernelTier::kAvx512:
      return &avx512::kTable;
#endif
#if defined(__aarch64__)
    case KernelTier::kNeon:
      return &neon::kTable;
#endif
    default:
      return nullptr;
  }
}

KernelTier detect_best() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (tier_supported(KernelTier::kAvx512)) return KernelTier::kAvx512;
  if (tier_supported(KernelTier::kAvx2)) return KernelTier::kAvx2;
  if (tier_supported(KernelTier::kSse)) return KernelTier::kSse;
#elif defined(__aarch64__)
  return KernelTier::kNeon;
#endif
  return KernelTier::kScalar;
}

/// Parses a NGP_FORCE_KERNEL_TIER value; false on unknown spelling.
bool parse_tier(const char* s, KernelTier best, KernelTier* out) noexcept {
  if (std::strcmp(s, "scalar") == 0) *out = KernelTier::kScalar;
  else if (std::strcmp(s, "sse") == 0) *out = KernelTier::kSse;
  else if (std::strcmp(s, "avx2") == 0) *out = KernelTier::kAvx2;
  else if (std::strcmp(s, "avx512") == 0) *out = KernelTier::kAvx512;
  else if (std::strcmp(s, "neon") == 0) *out = KernelTier::kNeon;
  else if (std::strcmp(s, "best") == 0) *out = best;
  else return false;
  return true;
}

const KernelTable* resolve_initial() noexcept {
  const KernelTier best = detect_best();
  KernelTier chosen = best;
  if (const char* env = std::getenv("NGP_FORCE_KERNEL_TIER")) {
    KernelTier forced;
    if (!parse_tier(env, best, &forced)) {
      std::fprintf(stderr,
                   "ngp::simd: unknown NGP_FORCE_KERNEL_TIER '%s' "
                   "(want scalar|sse|avx2|avx512|neon|best); using %s\n",
                   env, tier_name(best));
    } else if (table_for(forced) == nullptr) {
      std::fprintf(stderr,
                   "ngp::simd: NGP_FORCE_KERNEL_TIER=%s unavailable on this "
                   "host; using %s\n",
                   env, tier_name(best));
    } else {
      chosen = forced;
    }
  }
  return table_for(chosen);
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const KernelTable& kernels() noexcept {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: resolve_initial() is idempotent and tables are statics.
    t = resolve_initial();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

KernelTier active_tier() noexcept { return kernels().tier; }

KernelTier best_tier() noexcept {
  static const KernelTier best = detect_best();
  return best;
}

const KernelTable* tier_table(KernelTier tier) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
#endif
  return table_for(tier);
}

bool set_active_tier(KernelTier tier) noexcept {
  const KernelTable* t = tier_table(tier);
  if (t == nullptr) return false;
  g_active.store(t, std::memory_order_release);
  return true;
}

const char* tier_name(KernelTier tier) noexcept {
  switch (tier) {
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kSse: return "sse";
    case KernelTier::kAvx2: return "avx2";
    case KernelTier::kNeon: return "neon";
    case KernelTier::kAvx512: return "avx512";
  }
  return "?";
}

}  // namespace ngp::simd

namespace ngp {

// Defined here rather than in checksum/checksum.cpp (where it is declared)
// so the generic entry point routes every kind through the active SIMD
// tier; ngp_checksum keeps the per-algorithm scalar kernels and sits below
// ngp_simd in the link order.
std::uint32_t compute_checksum(ChecksumKind kind, ConstBytes data) noexcept {
  const simd::KernelTable& k = simd::kernels();
  switch (kind) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kInternet:
      return k.internet_checksum(data);
    case ChecksumKind::kFletcher32:
      return k.fletcher32(data);
    case ChecksumKind::kAdler32:
      return k.adler32(data);
    case ChecksumKind::kCrc32:
      return simd::crc32(k, data);
  }
  return 0;
}

}  // namespace ngp
