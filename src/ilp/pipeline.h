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
// tests pin. It is the only way a plan runs: a flat buffer is a chain of
// one pool segment (the kernel-tier benches, small_rpc's one-fragment
// ADUs). buf_test holds it to references that share no code with it: the
// ILP stage templates (ilp_fused over ilp/stages.h) for every fused plan,
// and for every plan ngp::chacha20_xor, Byteswap32Stage and the scalar
// checksums.
#pragma once

#include "buf/chain.h"
#include "crypto/chacha20.h"
#include "checksum/checksum.h"
#include "obs/cost.h"

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

/// Runs `plan` over a scatter-gather chain in place. Returns true when the
/// checksum, widened to 32 bits, equals the whole `expected_checksum`
/// field (the ADU is intact); the chain then holds the decrypted (and,
/// when requested, byte-swapped) payload. On mismatch its contents are
/// unspecified — callers discard and re-fetch, the ADU being the unit of
/// error recovery (§5). Every plan is supported: each ChecksumKind,
/// decrypt on or off, every PresentStage, fused or layered; verdict and
/// bytes do not depend on how the chain is cut. A fused plan (Internet or
/// CRC-32, not layered) is one buf::chain_pass: Internet sums fold per
/// segment with InternetChecksum::combine, CRC-32 carries its state
/// across boundaries, and the swap lands whatever the verdict. Any other
/// plan runs one pass per manipulation in conventional order: a
/// chain_pass to decrypt, a chain_checksum, then a chain_pass to swap
/// only when intact.
///
/// Ledger (`acct` nullable), fixed by the plan, the byte count and the
/// verdict alone, whatever the tier or cutting: one operation, then for a
/// fused plan one pass, which stores every word only when it decrypts or
/// swaps; for any other plan a storing decrypt pass (when decrypting), a
/// load-only verify pass and a storing swap pass (when swapping and
/// intact). The ledger prices memory passes, not instructions.
bool run_manipulation_chain(const ManipulationPlan& plan, buf::BufChain& chain,
                            obs::CostAccount* acct);

}  // namespace ngp
