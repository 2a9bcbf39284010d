// pipeline.h — a value-type description of one ADU's manipulation pipeline.
//
// The paper's §4/§5 split: control decides WHAT must happen to a complete
// ADU (which cipher, which integrity check, which presentation decode);
// the manipulation itself is the expensive every-byte work. This header
// reifies that decision as a ManipulationPlan so the same plan can run
//
//   * inline on the control thread (AlfReceiver's stage 2), or
//   * on an ngp::engine worker, out of order with other ADUs (§5: complete
//     ADUs named in an application name-space need no mutual ordering).
//
// Both paths run one executor over the receiver's reassembly chains,
// run_manipulation_chain, so the §4 cost ledger (obs::CostAccount) is
// charged identically no matter where a plan runs, a property the engine
// tests pin. run_manipulation is its flat twin over one buffer, the same
// walk over one segment and the kernel-tier benches' subject. The
// reference both are tested against is the ILP stage templates
// (ilp_fused over ilp/stages.h, buf_test).
#pragma once

#include "buf/chain.h"
#include "crypto/chacha20.h"
#include "checksum/checksum.h"
#include "obs/cost.h"
#include "util/bytes.h"

namespace ngp {

/// The presentation transform a ManipulationPlan fuses into its single
/// pass. A compiled presentation plan (ngp::presentation::PresentationPlan)
/// maps its wire shape to one of these via wire_stage():
///
///   kNone     — no fused presentation work (plan absent, or a shape the
///               compiler could not reduce to a whole-buffer kernel; the
///               decode then runs as its own charged transform pass).
///   kIdentity — wire bytes ARE host bytes (LWTS on a little-endian host):
///               the fused pass changes nothing, decode after it is free.
///   kSwap32   — every wire word is a big-endian 32-bit unit (XDR fixed
///               records, int arrays): fuse the byteswap32 kernel so the
///               buffer holds host-order values after the one pass.
enum class PresentStage : std::uint8_t { kNone = 0, kIdentity, kSwap32 };

/// The fused ILP stage pipeline for one complete ADU:
/// decrypt -> verify checksum (of the plaintext) -> presentation decode.
/// Stages are optional and independently selectable; the executor fuses
/// whatever subset it can into one pass (the active SIMD tier's kernels,
/// simd/dispatch.h) and falls back to extra passes only where a checksum
/// has no fused pass (Fletcher/Adler verify).
struct ManipulationPlan {
  /// Conventional layered engineering instead of the fused loop (one full
  /// pass per manipulation) — ProcessMode::kLayered of the session.
  bool layered = false;

  /// ChaCha20-decrypt the buffer first. `key` must be the finished per-ADU
  /// key (nonce tail already derived from the ADU id by the caller).
  bool decrypt = false;
  ChaChaKey key{};

  /// Whole-ADU integrity check over the plaintext.
  ChecksumKind checksum_kind = ChecksumKind::kInternet;
  std::uint32_t expected_checksum = 0;

  /// Presentation decode fused into the same pass. Applied after the
  /// checksum absorbs the plaintext, so the check still covers wire bytes.
  PresentStage present = PresentStage::kNone;
};

/// Runs `plan` over `buf` in place. Returns true when the checksum, widened
/// to 32 bits, equals the whole `expected_checksum` field (the ADU is
/// intact); the buffer then holds the decrypted (and, when requested,
/// byte-swapped) payload. On mismatch the buffer contents are unspecified —
/// callers discard and re-fetch, the ADU being the unit of error recovery
/// (§5). A fused plan is one buf::span_pass, the chain walk over one
/// segment.
///
/// `acct` (nullable) is charged in the §4 currency exactly as the inline
/// receive path charges it: fused plans pay one pass regardless of stage
/// count, layered plans one pass per manipulation.
bool run_manipulation(const ManipulationPlan& plan, MutableBytes buf,
                      obs::CostAccount* acct);

/// Runs `plan` over a scatter-gather chain in place — the receive path's
/// executor. Every plan is supported: each ChecksumKind, decrypt on or
/// off, every PresentStage, fused or layered; verdict and bytes are
/// bit-identical to run_manipulation over the flattened chain, however the
/// chain is segmented. A fused plan is one buf::chain_pass (Internet sums
/// fold per segment with InternetChecksum::combine, CRC-32 carries its
/// state across boundaries); a layered plan is a chain_pass to decrypt,
/// a chain_checksum, then a chain_pass to swap, and Fletcher-32 and
/// Adler-32 take their extra read-only pass as in the flat executor.
///
/// Ledger: the flat executor's charge, which depends only on the plan and
/// the byte count, with one exception: the flat fused pass is charged
/// copy-shaped, 1 load + 1 store per word, while a fused chain pass that
/// writes nothing (no decrypt, no swap) charges a load-only pass. That
/// difference IS the zero-copy saving the COPY_LEDGER benches measure.
bool run_manipulation_chain(const ManipulationPlan& plan, buf::BufChain& chain,
                            obs::CostAccount* acct);

}  // namespace ngp
