#include "ilp/pipeline.h"

#include "buf/chain_ops.h"

namespace ngp {

namespace {

/// kSwap32 is the only PresentStage that adds work to a pass; kIdentity
/// and kNone both leave the bytes alone inside the executor.
bool swap_fused(const ManipulationPlan& plan) {
  return plan.present == PresentStage::kSwap32;
}

/// True when the plan runs as ONE fused pass: ILP mode and a checksum with
/// a word kernel (Internet, CRC-32). Everything else runs one pass per
/// manipulation.
bool fuses(const ManipulationPlan& plan) {
  return !plan.layered && (plan.checksum_kind == ChecksumKind::kInternet ||
                           plan.checksum_kind == ChecksumKind::kCrc32);
}

}  // namespace

bool run_manipulation_chain(const ManipulationPlan& plan, buf::BufChain& chain,
                            obs::CostAccount* acct) {
  const std::size_t n = chain.size();
  const bool swap = swap_fused(plan);
  const ChaChaKey* key = plan.decrypt ? &plan.key : nullptr;
  if (acct != nullptr) acct->charge_operation(n);
  if (fuses(plan)) {
    // One fused walk over the gather view: decrypt and byteswap (when
    // asked) write back, a bare verify only reads. The checksum absorbs
    // the plaintext wire bytes; the swap lands unconditionally.
    const bool intact = buf::chain_pass(chain, key, plan.checksum_kind, swap) ==
                        plan.expected_checksum;
    if (acct != nullptr) acct->charge_pass(n, /*stores=*/plan.decrypt || swap);
    return intact;
  }

  // Layered, or a checksum with no word kernel (Fletcher/Adler/none): one
  // full pass per manipulation, conventional ordering, so the swap waits
  // for the read-only verify pass. Each pass still runs on the active
  // SIMD tier: layered vs fused is a statement about memory passes, not
  // about instruction selection.
  if (plan.decrypt) {
    buf::chain_pass(chain, key, ChecksumKind::kNone, false);
    if (acct != nullptr) acct->charge_pass(n, /*stores=*/true);
  }
  if (acct != nullptr) acct->charge_pass(n, /*stores=*/false);
  const bool intact =
      buf::chain_checksum(plan.checksum_kind, chain) == plan.expected_checksum;
  if (intact && swap) {
    buf::chain_pass(chain, nullptr, ChecksumKind::kNone, true);
    if (acct != nullptr) acct->charge_pass(n, /*stores=*/true);
  }
  return intact;
}

}  // namespace ngp
