#include "ilp/pipeline.h"

#include "buf/chain_ops.h"
#include "simd/dispatch.h"
#include "simd/keystream.h"

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

bool run_manipulation(const ManipulationPlan& plan, MutableBytes buf,
                      obs::CostAccount* acct) {
  if (fuses(plan)) {
    // The chain walk over one segment. Its §4 charge is one fused pass
    // whatever the tier: the ledger prices memory passes, not
    // instructions.
    const bool intact =
        buf::span_pass(buf, plan.decrypt ? &plan.key : nullptr,
                       plan.checksum_kind, swap_fused(plan)) ==
        plan.expected_checksum;
    if (acct != nullptr) acct->charge_fused(buf.size());
    return intact;
  }

  // Layered, or a checksum with no word kernel (Fletcher/Adler/none): one
  // full pass per manipulation, conventional ordering — so any byteswap
  // waits until the read-only verify pass has run. Each pass still runs
  // on the active SIMD tier: layered vs fused is a statement about memory
  // passes, not about instruction selection.
  if (acct != nullptr) acct->charge_operation(buf.size());
  if (plan.decrypt) {
    simd::chacha20_xor(simd::kernels(), plan.key, buf);
    if (acct != nullptr) acct->charge_pass(buf.size(), /*stores=*/true);
  }
  if (acct != nullptr) acct->charge_pass(buf.size(), /*stores=*/false);
  const bool intact =
      compute_checksum(plan.checksum_kind, buf) == plan.expected_checksum;
  if (intact && swap_fused(plan)) {
    simd::kernels().byteswap32(buf);
    if (acct != nullptr) acct->charge_pass(buf.size(), /*stores=*/true);
  }
  return intact;
}

bool run_manipulation_chain(const ManipulationPlan& plan, buf::BufChain& chain,
                            obs::CostAccount* acct) {
  const std::size_t n = chain.size();
  const bool swap = swap_fused(plan);
  const ChaChaKey* key = plan.decrypt ? &plan.key : nullptr;
  if (acct != nullptr) acct->charge_operation(n);
  if (fuses(plan)) {
    // One fused walk over the gather view: decrypt and byteswap (when
    // asked) write back, a bare verify only reads. Same semantics as the
    // flat fused kernels: the checksum absorbs the plaintext wire bytes,
    // the swap lands unconditionally.
    const bool intact = buf::chain_pass(chain, key, plan.checksum_kind, swap) ==
                        plan.expected_checksum;
    if (acct != nullptr) acct->charge_pass(n, /*stores=*/plan.decrypt || swap);
    return intact;
  }

  // One pass per manipulation, exactly as in the flat executor.
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
