// engine.h — the Integrated Layer Processing executors.
//
// Two ways to run the same set of manipulation stages over a buffer:
//
//   ilp_fused(src, dst, s1, s2, ...)    — ONE loop; each word is loaded
//       once, passed through every stage in registers, stored once. This is
//       the paper's ILP: "read the data once and perform as many
//       manipulations as possible while holding the data in cache or
//       registers" (§4). The copy src->dst is implicit in the loop.
//
//   ilp_layered(src, dst, s1, s2, ...)  — the conventional engineering: a
//       copy pass, then one full pass over the buffer PER STAGE, each with
//       its own loads (and stores when the stage mutates). This models a
//       stack in which every layer handles the data separately.
//
// Both produce byte-identical output and stage results — a property the
// test suite checks for every stage combination — so the benches measure
// pure engineering (memory traffic) differences, which is precisely the
// paper's claim.
#pragma once

#include <cstring>

#include "ilp/kernels.h"
#include "ilp/stages.h"
#include "obs/cost.h"
#include "util/bytes.h"

namespace ngp {

namespace detail {

template <WordStage... Stages>
inline std::uint64_t apply_word(std::uint64_t w, Stages&... stages) noexcept {
  ((w = stages.word(w)), ...);
  return w;
}

template <WordStage... Stages>
inline std::uint64_t apply_tail(std::uint64_t w, [[maybe_unused]] std::size_t n,
                                Stages&... stages) noexcept {
  ((w = stages.tail(w, n)), ...);
  return w;
}

/// Loads the final n (<8) bytes zero-padded into a little-endian word.
inline std::uint64_t load_tail(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, n);
  return w;
}

/// Stores the low n (<8) bytes of w.
inline void store_tail(std::uint8_t* p, std::uint64_t w, std::size_t n) noexcept {
  std::memcpy(p, &w, n);
}

}  // namespace detail

/// Integrated execution: one read and one write per word, all stages fused.
/// `dst` must be at least `src.size()` bytes; `dst` may alias `src` exactly
/// (in-place) but must not partially overlap.
template <WordStage... Stages>
void ilp_fused(ConstBytes src, MutableBytes dst, Stages&... stages) noexcept {
  const std::uint8_t* in = src.data();
  std::uint8_t* out = dst.data();
  std::size_t n = src.size();

  // 4-word unrolled main loop (matches the "hand-coded unrolled loop" the
  // paper's Table 1 numbers used).
  while (n >= 32) {
    std::uint64_t w0 = load_u64_le(in);
    std::uint64_t w1 = load_u64_le(in + 8);
    std::uint64_t w2 = load_u64_le(in + 16);
    std::uint64_t w3 = load_u64_le(in + 24);
    w0 = detail::apply_word(w0, stages...);
    w1 = detail::apply_word(w1, stages...);
    w2 = detail::apply_word(w2, stages...);
    w3 = detail::apply_word(w3, stages...);
    store_u64_le(out, w0);
    store_u64_le(out + 8, w1);
    store_u64_le(out + 16, w2);
    store_u64_le(out + 24, w3);
    in += 32;
    out += 32;
    n -= 32;
  }
  while (n >= 8) {
    store_u64_le(out, detail::apply_word(load_u64_le(in), stages...));
    in += 8;
    out += 8;
    n -= 8;
  }
  if (n > 0) {
    const std::uint64_t w = detail::apply_tail(detail::load_tail(in, n), n, stages...);
    detail::store_tail(out, w, n);
  }
}

/// The layered executor's copy pass: the Table 1 "Copy" kernel, a word
/// loop like every other pass these templates run.
inline void word_copy(ConstBytes src, MutableBytes dst) noexcept {
  copy_unrolled(src, dst);
}

namespace detail {

/// One full pass of a single stage over `buf` (in place).
template <WordStage S>
void layered_pass(MutableBytes buf, S& stage) noexcept {
  std::uint8_t* p = buf.data();
  std::size_t n = buf.size();
  if constexpr (S::kMutates) {
    while (n >= 8) {
      store_u64_le(p, stage.word(load_u64_le(p)));
      p += 8;
      n -= 8;
    }
    if (n > 0) store_tail(p, stage.tail(load_tail(p, n), n), n);
  } else {
    // Read-only layer: loads but no stores (e.g. a checksum pass).
    while (n >= 8) {
      (void)stage.word(load_u64_le(p));
      p += 8;
      n -= 8;
    }
    if (n > 0) (void)stage.tail(load_tail(p, n), n);
  }
}

}  // namespace detail

/// Layered execution: a copy pass, then one separate pass per stage.
/// Produces results identical to ilp_fused with the same stages.
template <WordStage... Stages>
void ilp_layered(ConstBytes src, MutableBytes dst, Stages&... stages) noexcept {
  if (dst.data() != src.data()) {
    word_copy(src, dst);
  }
  MutableBytes window = dst.subspan(0, src.size());
  (detail::layered_pass(window, stages), ...);
}

/// Number of stages in a pack that store data back (kMutates).
template <WordStage... Stages>
inline constexpr std::size_t kMutatingStageCount =
    (std::size_t{0} + ... + (Stages::kMutates ? 1 : 0));

// ---- Accounted executors --------------------------------------------------------
//
// Identical execution plus an analytic charge to an obs::CostAccount in the
// paper's §4 currency (full passes, loads/stores per word). The executors
// know their traffic exactly — fused touches each word once regardless of
// stage count; layered pays one pass per stage — so the charge is a few
// integer adds, not per-word instrumentation. `acct` may be null (no
// charge), keeping one call shape for instrumented and bare callers.

/// ilp_fused + charge: 1 pass, 1 load + 1 store per word, any stage count.
template <WordStage... Stages>
void ilp_fused_accounted(obs::CostAccount* acct, ConstBytes src, MutableBytes dst,
                         Stages&... stages) noexcept {
  ilp_fused(src, dst, stages...);
  if (acct != nullptr) acct->charge_fused(src.size());
}

/// ilp_layered + charge: the copy pass (skipped in place) and then one full
/// pass per stage, each loading every word and storing only when the stage
/// mutates — the N-pass number the paper's layered stack pays.
template <WordStage... Stages>
void ilp_layered_accounted(obs::CostAccount* acct, ConstBytes src, MutableBytes dst,
                           Stages&... stages) noexcept {
  ilp_layered(src, dst, stages...);
  if (acct != nullptr) {
    acct->charge_layered(src.size(), sizeof...(Stages),
                         kMutatingStageCount<Stages...>,
                         /*copy_pass=*/dst.data() != src.data());
  }
}

}  // namespace ngp
