// telemetry.h — the time-series telemetry hub.
//
// MetricsRegistry answers "what has the stack done so far"; the hub turns
// that into "what is the stack doing NOW": it periodically samples the
// registry's delta_snapshot() on the simulated clock, keeps a bounded
// time-series (JSONL export, one sample per line), and evaluates SLO
// watchdog thresholds (reassembly-buffer high-water, engine queue depth,
// NACK rate, ...) that fire callbacks when a metric crosses its limit.
//
// The hub is harness-side machinery, not datapath: it costs nothing except
// when a sample is taken, so — unlike the flight recorder — it is compiled
// in regardless of NGP_OBS. Wall-clock benches with no EventLoop drive it
// manually via sample_at().
//
// Termination discipline: EventLoop::run() drains until the queue is
// empty, so a naively re-armed periodic timer would keep the simulation
// alive forever. The hub's tick re-arms only while OTHER work is still
// pending on the loop; when it finds itself the last thing alive it takes
// its final sample and stands down.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/event_loop.h"
#include "util/sim_clock.h"

namespace ngp::obs {

struct TelemetryConfig {
  SimDuration interval = 10 * kMillisecond;  ///< sampling period (sim time)
  std::size_t max_samples = 4096;  ///< ring bound; overflow drops oldest
};

/// One time-series point: the registry's change over the last interval.
struct TelemetrySample {
  SimTime at = 0;
  /// The registry's monotonic delta sequence number for this sample
  /// (MetricsRegistry::delta_sequence). Strictly increasing across the
  /// series; a gap means another sampler also drew a delta in between.
  std::uint64_t seq = 0;
  Snapshot delta;
};

/// An SLO threshold on one fully-prefixed metric name.
struct SloWatch {
  std::string metric;
  double threshold = 0.0;
  /// Fire when value >= threshold (true) or <= threshold (false).
  bool fire_above = true;
  /// Histogram metrics are reduced to this percentile before comparison.
  double percentile = 99.0;
};

/// Passed to a watchdog callback when its threshold is crossed.
struct SloEvent {
  std::string metric;
  double value = 0.0;
  double threshold = 0.0;
  SimTime at = 0;
};

struct TelemetryStats {
  std::uint64_t samples_taken = 0;
  std::uint64_t samples_dropped = 0;  ///< evicted from the bounded series
  std::uint64_t watchdog_firings = 0;
  SimTime last_sample_at = -1;
};

class TelemetryHub {
 public:
  using WatchFn = std::function<void(const SloEvent&)>;

  /// `loop` may be null for manually-driven (wall-clock bench) hubs;
  /// start() then becomes unavailable and samples are taken via
  /// sample_at(). `reg` must outlive the hub.
  TelemetryHub(EventLoop* loop, MetricsRegistry& reg,
               TelemetryConfig cfg = {});
  ~TelemetryHub();

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Registers a watchdog. Edge-triggered: the callback fires once when the
  /// threshold is crossed and re-arms only after the condition clears.
  void add_watch(SloWatch watch, WatchFn fn);

  /// Takes a baseline sample now and arms the periodic timer. Requires a
  /// loop. The timer re-arms after each tick only while the loop has other
  /// pending work, so the hub never keeps a drained simulation alive.
  void start();
  /// Cancels the pending tick (the collected series is kept).
  void stop();
  bool running() const noexcept { return timer_ != 0; }

  /// Samples immediately at the loop's current time (loop mode).
  void sample_now();
  /// Samples immediately at an explicit timestamp (manual mode).
  void sample_at(SimTime at);

  const std::deque<TelemetrySample>& samples() const noexcept {
    return samples_;
  }
  TelemetryStats stats() const noexcept { return stats_; }

  /// One JSON object per line:
  /// {"t":<sim ns>,"seq":<delta ordinal>,"delta":{"metrics":[...]}}.
  /// Deterministic for a deterministic simulation.
  std::string to_jsonl() const;

  /// Writes the hub's own counters (samples taken and dropped, watchdog
  /// firings).
  void emit_metrics(MetricSink& sink) const;

 private:
  struct Watch {
    SloWatch cfg;
    WatchFn fn;
    bool armed = true;
  };

  void tick();
  void evaluate_watches(const Snapshot& absolute, SimTime at);

  EventLoop* loop_;
  MetricsRegistry& reg_;
  TelemetryConfig cfg_;
  std::deque<TelemetrySample> samples_;
  std::vector<Watch> watches_;
  TelemetryStats stats_;
  EventId timer_ = 0;
};

}  // namespace ngp::obs
