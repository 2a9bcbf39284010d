// cost.h — manipulation-cost accounting in the paper's §4 currency.
//
// §4 prices a protocol stack in MEMORY TRAFFIC: how many times each word
// of data crosses the memory interface (loads/stores per word, full passes
// over the buffer). A fused ILP loop costs 1 load + 1 store per word no
// matter how many manipulation stages it carries; a layered stack pays one
// additional full pass per stage. CostAccount keeps that ledger.
//
// Charging is ANALYTIC, not sampled: the executors know exactly how many
// words a pass touches, so an operation is charged with a handful of adds
// — zero per-word overhead, usable on the hot path unconditionally. The
// derived ratios (passes per operation, loads/stores per word) are what
// benches and tests compare against the paper's claims.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ngp::obs {

class MetricSink;

/// Ledger of memory traffic for one manipulation path (one receiver's
/// stage-2 pipeline, one link, one codec direction, ...).
struct CostAccount {
  std::uint64_t operations = 0;     ///< data units processed (ADUs, frames)
  std::uint64_t bytes_touched = 0;  ///< payload volume, counted once per op
  std::uint64_t words_touched = 0;  ///< ceil(bytes/8), once per op
  std::uint64_t memory_passes = 0;  ///< full traversals of the payload
  std::uint64_t word_loads = 0;     ///< total word reads across passes
  std::uint64_t word_stores = 0;    ///< total word writes across passes

  static constexpr std::uint64_t words(std::size_t bytes) noexcept {
    return (static_cast<std::uint64_t>(bytes) + 7) / 8;
  }

  void reset() noexcept { *this = CostAccount{}; }

  /// Begins one operation over `bytes` of payload (charges volume only).
  void charge_operation(std::size_t bytes) noexcept {
    ++operations;
    bytes_touched += bytes;
    words_touched += words(bytes);
  }

  /// One full pass over `bytes`: every word loaded, stored iff `stores`.
  void charge_pass(std::size_t bytes, bool stores) noexcept {
    ++memory_passes;
    word_loads += words(bytes);
    if (stores) word_stores += words(bytes);
  }

  /// Fused execution of one operation: a single pass, 1 load + 1 store per
  /// word regardless of stage count — the ILP claim itself.
  void charge_fused(std::size_t bytes) noexcept {
    charge_operation(bytes);
    charge_pass(bytes, /*stores=*/true);
  }

  /// Layered execution of one operation: an optional copy pass, then one
  /// pass per stage (each loads every word; only the `n_mutating` stages
  /// that rewrite data store it back).
  void charge_layered(std::size_t bytes, std::size_t n_stages, std::size_t n_mutating,
                      bool copy_pass) noexcept {
    charge_operation(bytes);
    if (copy_pass) charge_pass(bytes, /*stores=*/true);
    const std::uint64_t w = words(bytes);
    memory_passes += n_stages;
    word_loads += w * n_stages;
    word_stores += w * n_mutating;
  }

  /// A transforming pass with distinct input/output sizes (presentation
  /// conversion: read every input word once, write every output word once).
  void charge_transform(std::size_t bytes_in, std::size_t bytes_out) noexcept {
    charge_operation(bytes_in);
    ++memory_passes;
    word_loads += words(bytes_in);
    word_stores += words(bytes_out);
  }

  /// Merges another account into this one.
  void merge(const CostAccount& o) noexcept {
    operations += o.operations;
    bytes_touched += o.bytes_touched;
    words_touched += o.words_touched;
    memory_passes += o.memory_passes;
    word_loads += o.word_loads;
    word_stores += o.word_stores;
  }

  // Derived ratios (0 when nothing has been charged).
  double passes_per_operation() const noexcept {
    return operations ? static_cast<double>(memory_passes) /
                            static_cast<double>(operations)
                      : 0.0;
  }
  double loads_per_word() const noexcept {
    return words_touched ? static_cast<double>(word_loads) /
                               static_cast<double>(words_touched)
                         : 0.0;
  }
  double stores_per_word() const noexcept {
    return words_touched ? static_cast<double>(word_stores) /
                               static_cast<double>(words_touched)
                         : 0.0;
  }
};

/// Emits an account's counters and derived ratios into a snapshot, under
/// `name` ("cost" -> cost.bytes_touched, cost.loads_per_word, ...).
/// Defined in metrics.cpp so this header stays free of the sink type for
/// hot-path includers.
void emit_cost(MetricSink& sink, std::string_view name, const CostAccount& c);

}  // namespace ngp::obs
