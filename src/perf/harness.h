// harness.h — the self-diagnosing saturation harness (ngp::perf).
//
// The repo's optimisation story is quantitative: §4 of the paper argues
// about WHERE cycles go, and every PR since has shipped a ledger or bench
// to keep its own claim honest. This module automates the question "what
// is the bottleneck NOW?" with the saturation-throughput-delta
// methodology of the operator-cost profiling literature (PAPERS.md,
// arXiv 2508.09574):
//
//   1. drive a workload to SATURATION — step up offered load until more
//      offered load stops buying throughput (the knee);
//   2. re-run at the saturation point with exactly ONE operator perturbed
//      (force-scalar kernels, unfuse presentation, reintroduce copies,
//      shrink the worker pool, add a synthetic copy stage);
//   3. attribute the throughput DELTA to that operator, and rank.
//
// The harness measures two currencies per run and the report keeps both:
// wall-clock throughput (what the host actually did — noisy, machine
// bound) and the deterministic §4 ledger (memory passes / copied bytes —
// exact per seed). Their disagreement is itself a diagnosis: an operator
// whose perturbation moves wall time but not the ledger is compute-bound
// (a kernel tier), one that moves both is memory-bound (a copy stage).
//
// Workload is an interface so the attribution math is testable against a
// synthetic workload with a KNOWN injected bottleneck (perf_test) — the
// real datapath workloads live in perf/datapath.h.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ngp::perf {

/// One perturbable operator in the registry.
struct PerturbationInfo {
  /// Registry key, e.g. "force_scalar_kernels". [a-z0-9_]+.
  std::string name;
  std::string description;
  /// What currency the perturbation is expected to move: a compute
  /// perturbation leaves the §4 ledger untouched (tier-invariance is the
  /// cross-check), a memory one moves ledger and wall time together, a
  /// concurrency one moves wall time through parallelism alone.
  enum class Kind : std::uint8_t { kCompute, kMemory, kConcurrency };
  Kind kind = Kind::kCompute;
};

const char* perturbation_kind_name(PerturbationInfo::Kind k) noexcept;

/// One run's measurement. cost_units is wall-clock seconds for the real
/// workloads and a deterministic model cost for synthetic test workloads;
/// throughput is payload_bytes over cost_units either way.
struct RunMeasurement {
  double payload_bytes = 0.0;
  double cost_units = 0.0;
  /// Deterministic named counters (§4 ledgers, delivery stats). Exact per
  /// seed — the reproducible half of every attribution row.
  std::map<std::string, double> ledger;
  /// Output digest; must be perturbation-invariant for a valid workload
  /// (a perturbation degrades HOW work happens, never WHAT is computed).
  std::uint64_t output_hash = 0;
  /// TelemetryHub SLO watchdogs that fired during the run.
  std::vector<std::string> slo_failures;

  double mbps() const noexcept {
    return cost_units > 0.0 ? payload_bytes * 8.0 / 1e6 / cost_units : 0.0;
  }
};

/// A measurable workload with a registry of single-operator perturbations.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// The perturbation registry this workload supports. Order is the
  /// report's presentation order before ranking.
  virtual std::vector<PerturbationInfo> perturbations() const = 0;
  /// Runs once at `offered` load (workload-defined unit: in-flight ADUs,
  /// burst size, concurrent sessions). `perturbation` is "" for the
  /// baseline or one registry name; exactly one operator is perturbed.
  virtual RunMeasurement run(std::size_t offered,
                             const std::string& perturbation) = 0;
};

struct SaturationOptions {
  std::size_t offered_start = 4;    ///< first step's offered load
  std::size_t offered_max = 256;    ///< hard stop for the step search
  int repeats = 1;                  ///< best-of repeats per step (wall noise)
};

struct SaturationPoint {
  std::size_t offered = 0;
  double mbps = 0.0;
};

struct SaturationResult {
  std::vector<SaturationPoint> steps;   ///< the whole measured curve
  std::size_t offered_at_saturation = 0;
  double sat_mbps = 0.0;
  RunMeasurement at_saturation;         ///< measurement at the chosen knee
};

/// Step-search on offered load: doubling steps until the marginal
/// throughput gain drops below 5% (or offered_max). Returns the
/// best point seen — saturation throughput is a max, not a last-step.
SaturationResult find_saturation(Workload& w, const SaturationOptions& opt,
                                 const std::string& perturbation = "");

/// One operator's attribution row.
struct OperatorDelta {
  PerturbationInfo op;
  double baseline_mbps = 0.0;
  double perturbed_mbps = 0.0;
  double delta_mbps = 0.0;  ///< baseline - perturbed (positive = slowdown)
  double delta_frac = 0.0;  ///< delta_mbps / baseline_mbps
  /// Perturbed-minus-baseline ledger difference, exact per seed. Keys are
  /// the union of both runs' ledgers (absent = 0).
  std::map<std::string, double> ledger_delta;
  std::vector<std::string> slo_failures;  ///< watchdogs fired when perturbed
  bool output_hash_matches = true;        ///< invariant output self-check
};

/// The harness's verdict: saturation curve + ranked bottleneck table.
struct PerfReport {
  std::string workload;
  SaturationResult baseline;
  /// Ranked most-costly-first: delta_frac descending, ties by name (the
  /// wall ranking; each row carries its deterministic ledger cross-check).
  std::vector<OperatorDelta> ranked;
  std::vector<std::string> baseline_slo_failures;
  /// Baseline FlightRecorder per-stage latency breakdown JSON ("" when
  /// the workload collects none / observability is compiled out).
  std::string flight_breakdown_json;

  /// The operator-level attribution table, aligned for humans.
  std::string render_table() const;
};

/// Runs the full methodology: saturate the baseline, then re-run each
/// registry perturbation AT the baseline's saturation offered load and
/// attribute the deltas. Deterministic given a deterministic workload.
PerfReport diagnose(Workload& w, const SaturationOptions& opt);

}  // namespace ngp::perf
