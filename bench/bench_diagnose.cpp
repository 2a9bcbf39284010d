// bench_diagnose — the self-diagnosing saturation harness as a binary
// (DESIGN.md §14). Drives a real workload to saturation, re-runs it under
// the single-operator perturbation registry, and prints the ranked
// bottleneck attribution table. The report's HOLDS are the harness's own
// acceptance checks: every perturbation must reproduce the baseline's
// delivered-output hash, the ledger deltas must match what §4 arithmetic
// predicts for each operator (exact per seed), and the SLO watchdogs must
// stay silent. Exits non-zero on any violation — this is the `ctest -L
// perf` smoke gate.
//
// Flags (besides the shared bench_util set):
//   --workload=datapath|sessiond_plane   which Workload to diagnose
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "perf/datapath.h"
#include "perf/harness.h"

namespace {

using namespace ngp;
using namespace ngp::perf;

const OperatorDelta* find_op(const PerfReport& r, const char* name) {
  for (const OperatorDelta& d : r.ranked) {
    if (d.op.name == name) return &d;
  }
  return nullptr;
}

double ledger_delta(const OperatorDelta* d, const char* key) {
  if (d == nullptr) return 0.0;
  const auto it = d->ledger_delta.find(key);
  return it != d->ledger_delta.end() ? it->second : 0.0;
}

/// A compute/concurrency perturbation must leave the deterministic §4
/// ledger untouched; delivery-side counters that legitimately track the
/// toggled feature flag itself are not cost.
bool cost_ledger_invariant(const OperatorDelta* d) {
  if (d == nullptr) return false;
  return d->ledger_delta.empty();
}

std::string ranked_json(const PerfReport& r) {
  std::string arr = "[";
  for (const OperatorDelta& d : r.ranked) {
    ngp::bench::JsonWriter w;
    w.field("operator", d.op.name)
        .field("kind", perturbation_kind_name(d.op.kind))
        .field("baseline_mbps", d.baseline_mbps)
        .field("perturbed_mbps", d.perturbed_mbps)
        .field("delta_mbps", d.delta_mbps)
        .field("delta_frac", d.delta_frac)
        .field("output_hash_matches", d.output_hash_matches);
    ngp::bench::JsonWriter lw;
    for (const auto& [k, v] : d.ledger_delta) lw.field(k, v);
    w.raw("ledger_delta", lw.str());
    if (arr.size() > 1) arr += ',';
    arr += w.str();
  }
  return arr + "]";
}

std::string steps_json(const SaturationResult& s) {
  std::string arr = "[";
  for (const SaturationPoint& p : s.steps) {
    ngp::bench::JsonWriter w;
    w.field("offered", p.offered).field("mbps", p.mbps);
    if (arr.size() > 1) arr += ',';
    arr += w.str();
  }
  return arr + "]";
}

/// The offered burst of the one flight-recorded run. The baseline's knee
/// (`offered_at_saturation`) is a wall-time result that moves from run to
/// run of one binary (4, 8 or 16 on a 4-vCPU x86-64 host), and the
/// sim-time stages of the breakdown follow the burst, so a run at the
/// knee made FLIGHT_BREAKDOWN_JSON follow the host's load; a fixed burst
/// keeps those stages reproducible. 8 lies inside the smoke sweep (4..32).
constexpr std::size_t kFlightBurst = 8;

int run_datapath(const ngp::bench::Args& args) {
  DatapathOptions opt =
      args.smoke ? DatapathOptions::smoke(args.seed) : DatapathOptions{};
  opt.seed = args.seed;
  if (args.threads > 0) opt.engine_workers = static_cast<unsigned>(args.threads);
  DatapathWorkload w(opt);

  SaturationOptions sopt;
  sopt.offered_start = 4;
  sopt.offered_max = args.smoke ? 32 : 128;
  sopt.repeats = args.smoke ? 1 : 3;

  PerfReport report = diagnose(w, sopt);

  // One extra UNMEASURED run at kFlightBurst with the flight recorder on
  // — recording during diagnose() would bias the baseline.
  w.set_collect_flight(true);
  (void)w.run(kFlightBurst, "");
  w.set_collect_flight(false);
  report.flight_breakdown_json = w.last_flight_json();

  std::fputs(report.render_table().c_str(), stdout);
  if (!report.flight_breakdown_json.empty()) {
    std::printf("\nbaseline per-stage latency breakdown:\n");
    ngp::bench::emit_json("FLIGHT_BREAKDOWN_JSON", report.flight_breakdown_json);
  }

  const OperatorDelta* scalar = find_op(report, kPerturbScalarKernels);
  const OperatorDelta* unfuse = find_op(report, kPerturbUnfusePresentation);
  const OperatorDelta* copy_ingress = find_op(report, kPerturbCopyOnIngress);
  const OperatorDelta* shrink = find_op(report, kPerturbShrinkEngineWorkers);
  const OperatorDelta* copy = find_op(report, kPerturbSyntheticCopy);

  bool hashes_ok = true;
  for (const OperatorDelta& d : report.ranked) {
    hashes_ok = hashes_ok && d.output_hash_matches;
  }
  bool slo_ok = report.baseline_slo_failures.empty();
  for (const OperatorDelta& d : report.ranked) slo_ok = slo_ok && d.slo_failures.empty();

  const RunMeasurement& base = report.baseline.at_saturation;
  const auto base_ledger = [&](const char* key) {
    const auto it = base.ledger.find(key);
    return it != base.ledger.end() ? it->second : 0.0;
  };

  ngp::bench::BenchReport rep("diagnose", args);
  // The wall ranking (machine-bound, tracked loosely) ...
  rep.tracked("sat_mbps", report.baseline.sat_mbps, /*higher=*/true, 0.6);
  rep.metric("offered_at_saturation", report.baseline.offered_at_saturation);
  rep.metric("operators_attributed", report.ranked.size());
  for (const OperatorDelta& d : report.ranked) {
    rep.metric("delta_frac_" + d.op.name, d.delta_frac);
  }
  // ... and the deterministic §4 surface (exact per seed, tracked at zero
  // tolerance: any future change that adds a copy or a pass fails the
  // trajectory until the baseline is regenerated deliberately).
  rep.tracked("host_copied_bytes", base_ledger("host_copied_bytes"),
              /*higher=*/false, 0.0);
  rep.tracked("memory_passes", base_ledger("memory_passes"), /*higher=*/false, 0.0);
  rep.tracked("app_store_bytes", base_ledger("app_store_bytes"),
              /*higher=*/false, 0.0);
  rep.tracked("payload_bytes_delivered", base_ledger("payload_bytes_delivered"),
              /*higher=*/true, 0.0);

  rep.hold("attributes_five_operators", report.ranked.size() >= 5);
  rep.hold("output_hash_invariant", hashes_ok);
  rep.hold("slo_watchdogs_silent", slo_ok);
  rep.hold("all_adus_delivered",
           base_ledger("adus_delivered") == static_cast<double>(opt.total_adus));
  // Tier-invariance by construction: kernels never touch ledgers.
  rep.hold("scalar_tier_ledger_invariant", cost_ledger_invariant(scalar));
  // Concurrency perturbation moves wall time only.
  rep.hold("worker_shrink_ledger_invariant", cost_ledger_invariant(shrink));
  // Frames arriving outside the rx pool bring placement copies back and
  // zero-copy fragments go to zero.
  rep.hold("rx_pool_saves_host_copies",
           ledger_delta(copy_ingress, "host_copied_bytes") > 0.0 &&
               ledger_delta(copy_ingress, "fragments_zero_copy") < 0.0);
  // Unfusing the plan makes the application pay a separate store pass.
  rep.hold("unfuse_adds_app_store_pass",
           ledger_delta(unfuse, "app_store_bytes") > 0.0 &&
               ledger_delta(unfuse, "adus_presentation_fused") < 0.0);
  // The injected operator's ledger footprint is EXACTLY predictable.
  rep.hold("synthetic_copy_exact_bytes",
           ledger_delta(copy, "app_store_bytes") ==
               static_cast<double>(w.synthetic_copy_store_bytes()));

  rep.detail("ranked", ranked_json(report));
  rep.detail("saturation_steps", steps_json(report.baseline));
  rep.detail("flight_breakdown", report.flight_breakdown_json.empty()
                                     ? "{}"
                                     : report.flight_breakdown_json);

  std::printf("\nHOLDS: %s\n", rep.all_holds_ok() ? "all ok" : "FAILED");
  if (!rep.emit("DIAGNOSE_JSON")) return 1;
  return rep.all_holds_ok() ? 0 : 1;
}

int run_sessiond_plane(const ngp::bench::Args& args) {
  SessiondPlaneOptions opt =
      args.smoke ? SessiondPlaneOptions::smoke(args.seed) : SessiondPlaneOptions{};
  opt.seed = args.seed;
  if (args.threads > 0) opt.engine_workers = static_cast<unsigned>(args.threads);
  SessiondPlaneWorkload w(opt);

  SaturationOptions sopt;
  sopt.offered_start = 4;  // concurrent sessions
  sopt.offered_max = args.smoke ? 32 : 128;
  sopt.repeats = args.smoke ? 1 : 3;

  PerfReport report = diagnose(w, sopt);
  std::fputs(report.render_table().c_str(), stdout);

  bool hashes_ok = true, slo_ok = report.baseline_slo_failures.empty();
  for (const OperatorDelta& d : report.ranked) {
    hashes_ok = hashes_ok && d.output_hash_matches;
    slo_ok = slo_ok && d.slo_failures.empty();
  }

  ngp::bench::BenchReport rep("diagnose_sessiond_plane", args);
  rep.tracked("sat_mbps", report.baseline.sat_mbps, /*higher=*/true, 0.6);
  rep.metric("operators_attributed", report.ranked.size());
  rep.hold("attributes_five_operators", report.ranked.size() >= 5);
  rep.hold("output_hash_invariant", hashes_ok);
  rep.hold("slo_watchdogs_silent", slo_ok);
  rep.hold("all_adus_delivered",
           report.baseline.at_saturation.ledger.at("adus_delivered") ==
               static_cast<double>(opt.total_adus));
  rep.detail("ranked", ranked_json(report));
  rep.detail("saturation_steps", steps_json(report.baseline));

  std::printf("\nHOLDS: %s\n", rep.all_holds_ok() ? "all ok" : "FAILED");
  if (!rep.emit("DIAGNOSE_JSON")) return 1;
  return rep.all_holds_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ngp::bench::Args args = ngp::bench::parse_args(&argc, argv);
  std::string workload = "datapath";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workload=", 11) == 0) workload = argv[i] + 11;
  }
  if (workload == "datapath") return run_datapath(args);
  if (workload == "sessiond_plane") return run_sessiond_plane(args);
  std::fprintf(stderr, "unknown --workload=%s (want datapath|sessiond_plane)\n",
               workload.c_str());
  return 2;
}
