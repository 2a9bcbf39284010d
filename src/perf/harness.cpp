#include "perf/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace ngp::perf {

const char* perturbation_kind_name(PerturbationInfo::Kind k) noexcept {
  switch (k) {
    case PerturbationInfo::Kind::kCompute: return "compute";
    case PerturbationInfo::Kind::kMemory: return "memory";
    case PerturbationInfo::Kind::kConcurrency: return "concurrency";
  }
  return "unknown";
}

namespace {

RunMeasurement best_of(Workload& w, std::size_t offered,
                       const std::string& perturbation, int repeats) {
  RunMeasurement best;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    RunMeasurement m = w.run(offered, perturbation);
    if (i == 0 || m.mbps() > best.mbps()) best = std::move(m);
  }
  return best;
}

std::map<std::string, double> ledger_diff(
    const std::map<std::string, double>& base,
    const std::map<std::string, double>& perturbed) {
  std::map<std::string, double> out;
  std::set<std::string> keys;
  for (const auto& [k, v] : base) {
    (void)v;
    keys.insert(k);
  }
  for (const auto& [k, v] : perturbed) {
    (void)v;
    keys.insert(k);
  }
  for (const auto& k : keys) {
    const auto b = base.find(k);
    const auto p = perturbed.find(k);
    const double bv = b != base.end() ? b->second : 0.0;
    const double pv = p != perturbed.end() ? p->second : 0.0;
    if (pv != bv) out[k] = pv - bv;
  }
  return out;
}

}  // namespace

/// Offered load grows by this factor per step.
constexpr std::size_t kStepFactor = 2;
/// Marginal throughput gain below this fraction means saturated.
constexpr double kPlateauFrac = 0.05;

SaturationResult find_saturation(Workload& w, const SaturationOptions& opt,
                                 const std::string& perturbation) {
  SaturationResult r;
  std::size_t offered = std::max<std::size_t>(1, opt.offered_start);
  double prev_mbps = 0.0;
  while (offered <= opt.offered_max) {
    RunMeasurement m = best_of(w, offered, perturbation, opt.repeats);
    const double mbps = m.mbps();
    r.steps.push_back({offered, mbps});
    if (mbps > r.sat_mbps) {
      r.sat_mbps = mbps;
      r.offered_at_saturation = offered;
      r.at_saturation = std::move(m);
    }
    // Saturated once one more step stops paying: marginal gain over the
    // previous step under kPlateauFrac (or throughput actually fell).
    if (prev_mbps > 0.0 && mbps < prev_mbps * (1.0 + kPlateauFrac)) break;
    prev_mbps = mbps;
    offered *= kStepFactor;
  }
  return r;
}

PerfReport diagnose(Workload& w, const SaturationOptions& opt) {
  PerfReport report;
  report.workload = w.name();
  report.baseline = find_saturation(w, opt);
  report.baseline_slo_failures = report.baseline.at_saturation.slo_failures;

  const RunMeasurement& base = report.baseline.at_saturation;
  const double base_mbps = report.baseline.sat_mbps;
  const std::size_t offered = report.baseline.offered_at_saturation;

  for (const PerturbationInfo& p : w.perturbations()) {
    RunMeasurement m = best_of(w, offered, p.name, opt.repeats);
    OperatorDelta d;
    d.op = p;
    d.baseline_mbps = base_mbps;
    d.perturbed_mbps = m.mbps();
    d.delta_mbps = base_mbps - d.perturbed_mbps;
    d.delta_frac = base_mbps > 0.0 ? d.delta_mbps / base_mbps : 0.0;
    d.ledger_delta = ledger_diff(base.ledger, m.ledger);
    d.slo_failures = std::move(m.slo_failures);
    d.output_hash_matches = m.output_hash == base.output_hash;
    report.ranked.push_back(std::move(d));
  }

  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const OperatorDelta& a, const OperatorDelta& b) {
                     if (a.delta_frac != b.delta_frac)
                       return a.delta_frac > b.delta_frac;
                     return a.op.name < b.op.name;
                   });
  return report;
}

std::string PerfReport::render_table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "workload %s: saturation %.2f Mb/s at offered=%zu (%zu steps)\n",
                workload.c_str(), baseline.sat_mbps,
                baseline.offered_at_saturation, baseline.steps.size());
  out += line;
  if (!baseline_slo_failures.empty()) {
    out += "baseline SLO failures:";
    for (const auto& s : baseline_slo_failures) out += " " + s;
    out += "\n";
  }
  std::snprintf(line, sizeof line, "%-4s %-24s %-12s %12s %12s %8s  %s\n", "rank",
                "operator", "kind", "perturbed", "delta Mb/s", "share", "ledger delta");
  out += line;
  int rank = 1;
  for (const OperatorDelta& d : ranked) {
    std::string ledger;
    for (const auto& [k, v] : d.ledger_delta) {
      if (!ledger.empty()) ledger += ", ";
      char kv[96];
      std::snprintf(kv, sizeof kv, "%s%+.0f", (k + "=").c_str(), v);
      ledger += kv;
    }
    if (ledger.empty()) ledger = "(none — compute-bound)";
    std::snprintf(line, sizeof line, "%-4d %-24s %-12s %12.2f %+12.2f %7.1f%%  %s\n",
                  rank++, d.op.name.c_str(), perturbation_kind_name(d.op.kind),
                  d.perturbed_mbps, d.delta_mbps, d.delta_frac * 100.0,
                  ledger.c_str());
    out += line;
    if (!d.output_hash_matches) {
      out += "     ^ WARNING: output hash diverged — perturbation changed "
             "results, attribution invalid\n";
    }
    if (!d.slo_failures.empty()) {
      out += "     SLO failures under perturbation:";
      for (const auto& s : d.slo_failures) out += " " + s;
      out += "\n";
    }
  }
  return out;
}

}  // namespace ngp::perf
