// dispatch.h — runtime-dispatched SIMD manipulation kernels (ngp::simd).
//
// §4's thesis is that data-manipulation cost is memory passes, not
// instructions; the ILP templates (ilp/engine.h) fuse the passes, and this
// layer makes each fused pass as wide as the host allows — the modern
// analogue of the paper's "hand-coded unrolled loop" tier. One KernelTable
// per tier (scalar / SSE-SSSE3 / AVX2+PCLMUL / AVX-512 / NEON) is compiled
// into the library; the best tier the CPU supports is selected once at
// startup via cpuid, overridable with the NGP_FORCE_KERNEL_TIER environment
// variable (scalar|sse|avx2|avx512|neon|best) for testing, or
// programmatically with set_active_tier() for in-process tier sweeps
// (benches, property tests). The vector tiers are one implementation,
// simd/kernels_vec.inc, stamped at 16, 32 and 64 bytes.
//
// Invariants every tier must uphold (pinned by tests/simd_test.cpp):
//   * byte-identical outputs and identical checksum results vs the scalar
//     tier for every size and alignment, and for crc32 from every state;
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
  kScalar = 0,  ///< portable 64-bit word loops (checksum/, ilp/engine.h)
  kSse = 1,     ///< 16-byte vectors (x86 SSE2..SSSE3)
  kAvx2 = 2,    ///< 32-byte vectors + PCLMULQDQ CRC folding
  kNeon = 3,    ///< 16-byte vectors (aarch64)
  kAvx512 = 4,  ///< 64-byte vectors (AVX-512 F/VL/BW) + the AVX2 CRC fold
};
inline constexpr std::size_t kKernelTierCount = 5;

/// One tier's ten kernels. All function pointers are non-null in every
/// compiled-in table. Buffers may be arbitrarily aligned; in-place
/// kernels mutate their span directly. A copy is no kernel here: every
/// datapath copy is copy_bytes (util/bytes.h), libc's memcpy, which no
/// tier's loop beat; a ChaCha20 XOR is simd::chacha20_xor
/// (simd/keystream.h), the generator below and xor_keystream.
struct KernelTable {
  KernelTier tier;
  const char* name;

  // --- single-manipulation kernels (one memory pass each) ---
  std::uint16_t (*internet_checksum)(ConstBytes data);  ///< RFC 1071, complemented
  std::uint32_t (*fletcher32)(ConstBytes data);
  std::uint32_t (*adler32)(ConstBytes data);
  /// IEEE 802.3 reflected CRC-32, continuing a raw state: returns the
  /// state after `data`, with no init or final XOR, so a pass cut into
  /// pieces (chain segments, 2 KiB slices of a fused pass) threads one
  /// state through them: crc32(crc32(s, a), b) == crc32(s, a‖b). Callers
  /// wanting the finished CRC of one buffer use simd::crc32(table, data)
  /// below.
  std::uint32_t (*crc32)(std::uint32_t state, ConstBytes data);
  /// Presentation decode: swap each 32-bit element. Byteswap32Stage
  /// semantics exactly — 8-byte words swap both halves; a final partial
  /// word swaps only when exactly 4 bytes remain, else passes through.
  void (*byteswap32)(MutableBytes data);

  // --- the fused family (§6: the whole stage stack in ONE memory pass) ---
  //
  // Decryption is split from the data pass: chacha20_keystream runs the
  // cipher ahead of the data into a buffer, and the (data, keystream)
  // kernels XOR it in while they sum, swap and store. Callers draw the
  // keystream from a simd::KeystreamCursor (simd/keystream.h), which hands
  // each piece of the data the next keystream bytes, so where the data is
  // cut (a chain's segments or a flat buffer's refills, buf/chain_ops.h)
  // never changes what the cipher computes. Byte effects and results are
  // bit-identical to ilp_fused over the matching stages (KeystreamStage /
  // ChecksumStage / Byteswap32Stage): keystream masked to the data length,
  // the checksum over the zero-padded plaintext word, a partial tail
  // swapped only when exactly 4 bytes remain.

  /// Writes the keystream of blocks counter, counter+1, ... to `out`, in
  /// stream order; a partial last block is cut to out.size(). The block
  /// counter wraps modulo 2^32 as chacha20_block's does. Vector tiers
  /// compute kLanes blocks per step (16 on AVX-512, 8 on AVX2, 4 on SSE
  /// and NEON).
  void (*chacha20_keystream)(const ChaChaKey& key, std::uint32_t counter,
                             MutableBytes out);
  /// data ^= keystream, nothing else (a pass that only ciphers).
  /// `keystream` holds at least data.size() bytes, does not overlap
  /// `data` and may start anywhere in a block; the rest is not read. The
  /// same holds for the keystream of the two kernels below.
  void (*xor_keystream)(ConstBytes keystream, MutableBytes data);
  /// data ^= keystream, then the Internet checksum of the plaintext.
  std::uint16_t (*xor_internet_checksum)(ConstBytes keystream,
                                         MutableBytes data);
  /// xor_internet_checksum, then each 32-bit unit byte-swapped in place.
  std::uint16_t (*xor_checksum_byteswap)(ConstBytes keystream,
                                         MutableBytes data);
  /// The same pass with no keystream: checksum, then byteswap.
  std::uint16_t (*checksum_byteswap)(MutableBytes data);
};

/// The CRC-32 state before any byte, and the XOR that finishes one.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

/// The finished CRC-32 of `data` on table `k` (ngp::crc32's value): the
/// tier kernel seeded with kCrc32Init, then the final XOR.
inline std::uint32_t crc32(const KernelTable& k, ConstBytes data) noexcept {
  return k.crc32(kCrc32Init, data) ^ kCrc32Init;
}

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
