// breaker.h — per-path health tracking and circuit breakers.
//
// §3 of the paper lists link failure among the network behaviours a
// general-purpose protocol must survive; the self-healing session plane
// (DESIGN.md §10.2) acts on it below the ALF endpoints. SwitchingPath is a
// NetPath composed of member paths, each watched by an EWMA delivery-ratio
// monitor fed from the member's own counters (LinkStats / FaultStats —
// whatever the harness samples). A member whose ratio decays below the trip
// threshold has its breaker OPENED: traffic fails over to the next healthy
// member immediately, without waiting for the endpoints' NACK/watchdog
// machinery to notice. An open breaker HALF-OPENS after a (doubling,
// capped) backoff by sending a few PROBE frames — frames the endpoints
// ignore entirely; only path-level delivery counters see them — and CLOSES
// again only once the probes actually arrive.
//
// The breaker is protocol-agnostic: it never parses frames. The probe
// builder is injected from above (alf::encode_probe in practice), the same
// layering rule as FaultyPath's adversaries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netsim/net_path.h"
#include "util/event_loop.h"

namespace ngp::obs {
class MetricSink;
class MetricsRegistry;
class FlightRecorder;
}  // namespace ngp::obs

namespace ngp::resilience {

enum class BreakerState : std::uint8_t {
  kClosed = 0,    ///< healthy: traffic flows
  kOpen = 1,      ///< tripped: member carries nothing, backoff running
  kHalfOpen = 2,  ///< probing: a few PROBEs decide close-or-reopen
};

const char* to_string(BreakerState s) noexcept;

/// Cumulative (offered, delivered) counters for one member path, sampled by
/// the monitor each poll; deltas between polls feed the EWMA. The harness
/// supplies the closure — netsim's LinkStats, FaultStats, or anything else
/// that can count frames in and frames out.
struct PathSample {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
};
using SampleFn = std::function<PathSample()>;

/// Builds one PROBE frame (half-open trials). `seq` increments per probe so
/// every probe is a distinct frame on the wire.
using ProbeFn = std::function<ByteBuffer(std::uint32_t seq)>;

struct BreakerConfig {
  SimDuration poll_interval = 50 * kMillisecond;
  /// Trip the breaker once the delivery ratio's EWMA (weight 0.3 on the
  /// newest poll) sinks below this (after min_polls).
  double trip_below = 0.5;
  /// Close a half-open breaker once the probe delivery ratio reaches this.
  double close_above = 0.8;
  /// Polls with traffic evidence required before the breaker may trip
  /// (a single unlucky burst must not fail a healthy path over).
  int min_polls = 3;
  /// Open-state backoff before the first half-open trial; doubles per
  /// failed trial, capped at 8 s.
  SimDuration open_backoff = 500 * kMillisecond;
  /// PROBE frames per half-open trial.
  std::uint32_t probe_count = 4;
};

struct BreakerStats {
  std::uint64_t polls = 0;           ///< polls with traffic evidence
  std::uint64_t trips = 0;           ///< closed -> open transitions
  std::uint64_t failovers = 0;       ///< active-member switches
  std::uint64_t half_opens = 0;      ///< open -> half-open trials
  std::uint64_t probes_sent = 0;
  std::uint64_t reopens = 0;         ///< failed half-open trials
  std::uint64_t closes = 0;          ///< half-open -> closed recoveries
  std::uint64_t sends_suppressed = 0;///< sends forwarded while the active
                                     ///< member's breaker stood open (no
                                     ///< healthy alternative existed)
};

/// NetPath multiplexing traffic over member paths behind circuit breakers.
/// Frames sent here go out the active member; deliveries from ANY member
/// come up the one registered handler (in the sim both directions of a
/// member terminate in-process, so the receiving endpoint hears whichever
/// member the breaker routed around to).
class SwitchingPath final : public NetPath {
 public:
  SwitchingPath(EventLoop& loop, BreakerConfig cfg = {});

  SwitchingPath(const SwitchingPath&) = delete;
  SwitchingPath& operator=(const SwitchingPath&) = delete;
  ~SwitchingPath();

  /// Registers a member. The first added member starts active. Call before
  /// start(); returns the member index.
  std::size_t add_path(NetPath& path, SampleFn sample);

  /// Installs the probe-frame builder (no probes are sent without one).
  void set_probe(ProbeFn fn) { probe_ = std::move(fn); }

  /// Arms the health poll. Call after add_path() wiring is complete. The
  /// poll timer re-arms only while other events are pending, so an
  /// otherwise-quiescent simulation still drains (TelemetryHub discipline).
  void start();

  bool send(ConstBytes frame) override;
  void set_handler(FrameHandler handler) override;
  /// The tightest member MTU: a frame accepted here survives a failover.
  std::size_t max_frame_size() const override;

  std::size_t active() const noexcept { return active_; }
  BreakerState state(std::size_t idx) const { return members_.at(idx).state; }
  double ewma(std::size_t idx) const { return members_.at(idx).ewma; }
  const BreakerStats& stats() const noexcept { return stats_; }

  /// Writes breaker counters plus per-member state/EWMA gauges.
  void emit_metrics(obs::MetricSink& sink) const;
  void register_metrics(obs::MetricsRegistry& reg, std::string prefix) const;
  /// Attaches the flight recorder on a new "breaker" track: probe-tx and
  /// failover events (trace id 0 — path events are flow-agnostic).
  void set_flight(obs::FlightRecorder* flight);

 private:
  struct Member {
    NetPath* path = nullptr;
    SampleFn sample;
    BreakerState state = BreakerState::kClosed;
    double ewma = 1.0;
    int evidence_polls = 0;       ///< polls that saw traffic on this member
    PathSample last{};            ///< previous poll's cumulative counters
    SimTime retry_at = 0;         ///< open: when the next half-open trial may run
    SimDuration backoff = 0;      ///< current open backoff (doubles per reopen)
    std::uint64_t probe_offered_base = 0;  ///< counters at half-open entry
    std::uint64_t probe_delivered_base = 0;
  };

  void poll();
  void trip(std::size_t idx);
  void begin_half_open(std::size_t idx);
  void settle_half_open(std::size_t idx);
  void failover_from(std::size_t idx);

  EventLoop& loop_;
  BreakerConfig cfg_;
  std::vector<Member> members_;
  std::size_t active_ = 0;
  bool started_ = false;
  EventId poll_timer_ = 0;
  std::uint32_t probe_seq_ = 0;
  ProbeFn probe_;
  FrameHandler handler_;
  BreakerStats stats_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;
};

}  // namespace ngp::resilience
