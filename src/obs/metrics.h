// metrics.h — the cross-layer metrics registry (DESIGN.md "Observability").
//
// The paper's argument is an accounting argument: §4 attributes the
// per-byte cost of a stack to specific manipulation stages, and every
// optimisation claim in this repo has to be provable the same way. This
// module gives the whole stack ONE export surface for its counters:
//
//   * components keep their cheap plain-struct counters on the hot path
//     (SenderStats, LinkStats, ... are untouched by registration);
//   * each component registers a SNAPSHOT SOURCE — a callback that reads
//     its stats struct on demand — under a hierarchical dotted name
//     ("alf.rx", "netsim.link0");
//   * snapshot() pulls every source once and returns a deterministic,
//     name-sorted Snapshot exportable as aligned text or one-line JSON.
//
// Registration costs nothing until a snapshot is taken, so the registry can
// stay wired in production builds; determinism of the export (given a
// deterministic simulation) is a tested property.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace ngp::obs {

/// Receives one component's samples during a snapshot. Names are relative;
/// the registry prepends the component's registered prefix.
class MetricSink {
 public:
  virtual ~MetricSink() = default;

  virtual void counter(std::string_view name, std::uint64_t value) = 0;
  virtual void gauge(std::string_view name, double value) = 0;
  virtual void histogram(std::string_view name, const Histogram& h) = 0;
};

/// Forwards samples to another sink with a name prefix prepended. Lets one
/// registered source emit nested sub-component metrics (per-worker,
/// per-lane) without registering a source per sub-component:
///
///   PrefixedSink ws(sink, "worker3.");
///   ws.counter("jobs", n);   // exports as <source prefix>.worker3.jobs
class PrefixedSink final : public MetricSink {
 public:
  PrefixedSink(MetricSink& inner, std::string prefix)
      : inner_(inner), prefix_(std::move(prefix)) {}

  void counter(std::string_view name, std::uint64_t value) override {
    inner_.counter(full(name), value);
  }
  void gauge(std::string_view name, double value) override {
    inner_.gauge(full(name), value);
  }
  void histogram(std::string_view name, const Histogram& h) override {
    inner_.histogram(full(name), h);
  }

 private:
  std::string full(std::string_view name) const {
    return prefix_ + std::string(name);
  }

  MetricSink& inner_;
  std::string prefix_;
};

/// One exported sample.
struct Sample {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  ///< kCounter value
  double value = 0.0;       ///< kGauge value
  // kHistogram payload: bucket counts plus range and out-of-range tallies.
  std::vector<std::uint64_t> buckets;
  double lo = 0.0, hi = 0.0;
  std::uint64_t underflow = 0, overflow = 0;
};

/// Estimates the p-th percentile (p in [0,100]) of a histogram sample from
/// its bucket counts, interpolating linearly within the bucket that holds
/// the continuous rank p/100 * total. Edge cases are pinned by tests:
/// empty histograms and non-histogram samples return 0; NaN or negative p
/// clamps to 0 and p > 100 clamps to 100; p=0 returns the lower edge of
/// the lowest occupied region (`lo` when underflow mass exists) and p=100
/// the upper edge of the highest occupied bucket (`hi` only when overflow
/// mass exists); a single-sample histogram reports its bucket's midpoint
/// at p=50 rather than the bucket's upper edge. Used for the p50/p95/p99
/// summary lines in exports and by TelemetryHub SLO watchdogs.
double histogram_percentile(const Sample& s, double p);

/// Text helpers the obs exports share. format_double renders "%.10g":
/// enough digits to round-trip the values we export (ratios of 64-bit
/// counters), locale-independent. append_json_escaped escapes only '"'
/// and '\\'.
std::string format_double(double v);
void append_json_escaped(std::string& out, std::string_view s);

/// A full-stack profile at one instant: name-sorted samples with
/// deterministic text/JSON renderings.
class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::vector<Sample> samples);

  const std::vector<Sample>& samples() const noexcept { return samples_; }
  bool empty() const noexcept { return samples_.empty(); }

  /// First sample with this exact (fully-prefixed) name; nullptr if absent.
  const Sample* find(std::string_view name) const noexcept;
  /// Counter value by name; `fallback` when absent or not a counter.
  std::uint64_t counter_or(std::string_view name, std::uint64_t fallback = 0) const;
  /// Gauge value by name; `fallback` when absent or not a gauge.
  double gauge_or(std::string_view name, double fallback = 0.0) const;

  /// Aligned human-readable table, one sample per line, sorted by name.
  std::string to_text() const;
  /// One-line JSON: {"metrics":[{"name":...,"type":...,"value":...},...]}.
  /// Byte-identical across runs of the same deterministic simulation.
  std::string to_json() const;

 private:
  std::vector<Sample> samples_;  // sorted by name (stable)
};

/// A component the registry can read: it writes its counters into a sink.
/// A composite nests its children's samples through a PrefixedSink.
template <typename C>
concept MetricsComponent = requires(const C& c, MetricSink& sink) {
  c.emit_metrics(sink);
};

/// The cross-layer registry. Components register snapshot sources; callers
/// take snapshots. Sources must outlive the registry or be removed first
/// (components typically outlive the per-experiment registry that reads
/// them, which is the intended shape).
class MetricsRegistry {
 public:
  using SourceFn = std::function<void(MetricSink&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers `component`'s emit_metrics under `prefix` (e.g. "alf.tx",
  /// "netsim.link0"). The component must outlive the registry or be
  /// removed first. Returns an id usable with remove_source().
  template <MetricsComponent C>
  std::size_t add(std::string prefix, const C& component) {
    return add_source(std::move(prefix), [&component](MetricSink& sink) {
      component.emit_metrics(sink);
    });
  }
  /// A temporary would be gone before the first snapshot.
  template <MetricsComponent C>
  std::size_t add(std::string prefix, const C&& component) = delete;

  /// Registers a source under `prefix` (dotted hierarchy, no trailing
  /// dot). Returns an id usable with remove_source().
  std::size_t add_source(std::string prefix, SourceFn fn);
  /// Drops a source; safe to call with an already-removed id.
  void remove_source(std::size_t id);

  std::size_t source_count() const noexcept { return sources_.size(); }

  /// Reads every source once. Sources run in registration order; the
  /// resulting samples are stably sorted by full name.
  Snapshot snapshot() const;

  /// Snapshot of the CHANGE since the previous delta_snapshot() (or since
  /// construction): counters and histogram buckets are differenced against
  /// the internal mark (saturating at zero, so a component reset never
  /// exports garbage); gauges pass through as absolute values. When
  /// `absolute_out` is non-null it receives the underlying full snapshot —
  /// sources run exactly once either way. This is the TelemetryHub's
  /// sampling primitive.
  Snapshot delta_snapshot(Snapshot* absolute_out = nullptr);

  /// Monotonic sequence number of delta_snapshot() calls: 0 before any
  /// delta has been taken, N after the Nth. Samplers (TelemetryHub, the
  /// perf harness) stamp it onto each sample so a series' ordering — and
  /// any gap where a sample was dropped — survives export and re-import.
  std::uint64_t delta_sequence() const noexcept { return delta_seq_; }

 private:
  struct Source {
    std::size_t id;
    std::string prefix;
    SourceFn fn;
  };

  std::vector<Source> sources_;
  std::size_t next_id_ = 1;
  std::map<std::string, Sample, std::less<>> mark_;  // delta_snapshot state
  std::uint64_t delta_seq_ = 0;  // delta_snapshot call counter
};

}  // namespace ngp::obs
