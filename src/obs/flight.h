// flight.h — the per-ADU flight recorder: end-to-end lifecycle tracing.
//
// The paper's §5 argument (in-order delivery stalls the application on
// every loss; ALF lets complete ADUs proceed out of order) is an argument
// about INDIVIDUAL ADU journeys, not aggregates. This module stitches one
// ADU's journey across every layer it crosses — sender staging/framing,
// each netsim hop (enqueue / deliver / drop / corrupt), receiver
// reassembly and placement, engine worker execution — under a flow-scoped
// trace id, following the x-kernel's per-message tracing discipline.
//
// Cost discipline (the off-switch ladder in obs/config.h):
//   * Compile-time: NGP_OBS=OFF compiles every recorder method to an empty
//     inline body; call sites need no #ifdefs and produce no code.
//   * Run-time: a recorder constructs disabled; enabled builds with flight
//     recording off cost one branch per event.
//   * Recording NEVER blocks the datapath: each track is a bounded ring
//     written by exactly one thread (control = track writers it attached;
//     engine workers = their own tracks), oldest events are overwritten
//     and counted as dropped when a ring fills.
//
// Export is two-fold:
//   * to_perfetto_json(): Chrome/Perfetto trace_event JSON — one track per
//     component/worker, ADU ids drawn as flow arrows across tracks. Open
//     it at https://ui.perfetto.dev.
//   * latency_table(): per-ADU latency breakdown (send→first-byte,
//     network, reassembly-wait, engine-queue, manipulation) with
//     p50/p95/p99 — the §5 head-of-line-blocking tail, quantified.
//
// Both exports are byte-identical across identically-seeded deterministic
// runs — a tested property (flight_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/config.h"
#include "util/sim_clock.h"
#include "util/stats.h"

namespace ngp::obs {

class MetricSink;

/// Lifecycle stages a flight event can mark. One ADU's journey touches a
/// subset of these, in roughly this order.
enum class FlightStage : std::uint8_t {
  kStaged = 0,       ///< sender accepted the ADU (send_adu)
  kFragTx,           ///< a fragment left the sender
  kRetransmitTx,     ///< a recovery fragment left the sender
  kLinkEnqueue,      ///< a link accepted a frame carrying this ADU
  kLinkDrop,         ///< the link dropped it (loss / queue / oversize)
  kLinkDeliver,      ///< the link delivered it to the receiving host
  kFaultCorrupt,     ///< fault injection mangled the frame
  kFaultDrop,        ///< fault injection swallowed it (outage / blackhole)
  kFragRx,           ///< receiver placed a fragment of this ADU
  kAduComplete,      ///< last byte reassembled
  kEngineSubmit,     ///< stage-2 job queued on the engine
  kWorkerBegin,      ///< engine worker picked the job up
  kWorkerEnd,        ///< engine worker finished the manipulation
  kHarvest,          ///< completion drained back to the control thread
  kManipBegin,       ///< inline stage-2 manipulation started
  kManipEnd,         ///< inline stage-2 manipulation finished
  kDeliver,          ///< ADU handed to the application
  kAbandon,          ///< recovery gave up on this ADU
  kShed,             ///< overload policy shed this incomplete ADU
  kSessionFail,      ///< an endpoint's stall watchdog went terminal
  kEpochResume,      ///< supervised restart established a new epoch
  kProbeTx,          ///< circuit breaker sent a half-open probe
  kFailover,         ///< circuit breaker switched the active path
  kSessionCreate,    ///< sessiond admitted a new flow into the table
  kSessionEvict,     ///< sessiond evicted a flow (idle sweep or shedding)
  kBufRecycle,       ///< a zero-copy ADU chain released its pool segments
};

inline constexpr std::size_t kFlightStageCount =
    static_cast<std::size_t>(FlightStage::kBufRecycle) + 1;

/// Stable short name ("staged", "frag_tx", ...) used in exports.
std::string_view flight_stage_name(FlightStage s) noexcept;

/// One recorded lifecycle event.
struct FlightEvent {
  SimTime at = 0;
  std::uint64_t trace_id = 0;  ///< flow-scoped ADU id; 0 = component-level
  std::uint64_t arg = 0;       ///< bytes, event-specific
  std::uint16_t track = 0;
  FlightStage stage = FlightStage::kStaged;
};

struct FlightConfig {
  /// Ring capacity per track. A full ring overwrites its oldest events;
  /// every overwrite is counted in FlightStats::events_dropped.
  std::size_t events_per_track = std::size_t{1} << 15;
};

struct FlightStats {
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;  ///< overwritten in a full ring
  std::uint64_t tracks = 0;
};

/// The flow-scoped trace id ALF components use: session id in the high
/// word, ADU id in the low word. 0 never names a real ADU (id 0 reserved).
constexpr std::uint64_t flight_trace_id(std::uint16_t session,
                                        std::uint32_t adu_id) noexcept {
  return (std::uint64_t{session} << 32) | adu_id;
}

/// One ADU's reconstructed journey: stage timestamps (-1 = never seen).
struct FlightRow {
  std::uint64_t trace_id = 0;
  SimTime staged = -1;
  SimTime first_tx = -1;
  SimTime first_rx = -1;
  SimTime complete = -1;
  SimTime submit = -1;       ///< engine queue-in
  SimTime manip_begin = -1;  ///< inline or worker begin
  SimTime manip_end = -1;
  SimTime harvest = -1;
  SimTime delivered = -1;
  std::uint64_t bytes = 0;  ///< payload size (from staged/deliver arg)
  bool abandoned = false;
};

/// Per-ADU latency breakdown with deterministic text/JSON export. The five
/// segments decompose an ADU's completion latency the way §5 argues about
/// it: how long until the receiver saw ANY byte, how long the network took,
/// how long the ADU waited on holes, how long stage 2 queued, and the
/// manipulation itself.
class FlightTable {
 public:
  enum class Segment : std::uint8_t {
    kSendToFirstByte = 0,  ///< staged -> first fragment placed
    kNetwork,              ///< first tx -> first fragment placed
    kReassemblyWait,       ///< first fragment placed -> last byte
    kEngineQueue,          ///< engine submit -> harvest (0 inline)
    kManipulation,         ///< manip/worker begin -> end
    kCompletion,           ///< staged -> delivered (the §5 headline)
  };
  static constexpr std::size_t kSegmentCount =
      static_cast<std::size_t>(Segment::kCompletion) + 1;
  static std::string_view segment_name(Segment s) noexcept;

  FlightTable() = default;
  explicit FlightTable(std::vector<FlightRow> rows);

  const std::vector<FlightRow>& rows() const noexcept { return rows_; }
  std::size_t delivered_count() const noexcept { return delivered_; }
  std::size_t abandoned_count() const noexcept { return abandoned_; }
  bool empty() const noexcept { return rows_.empty(); }

  /// Nearest-rank percentile (p in [0,100], sim ns) over the rows where the
  /// segment is defined. 0 when no row has it.
  double percentile(Segment seg, double p) const;
  /// Rows contributing to a segment's percentile.
  std::size_t segment_count(Segment seg) const;

  /// Aligned per-ADU table plus p50/p95/p99 summary lines. `max_rows`
  /// bounds the per-ADU section (0 = all rows).
  std::string to_text(std::size_t max_rows = 0) const;
  /// One-line JSON: counts plus per-segment p50/p95/p99 (sim ns).
  std::string to_json() const;

 private:
  std::vector<FlightRow> rows_;  // sorted by trace_id
  Percentiles seg_[kSegmentCount];  // samples per segment
  std::size_t delivered_ = 0;
  std::size_t abandoned_ = 0;
};

#if NGP_OBS_ENABLED

/// Collects FlightEvents against a caller-supplied sim-time source into
/// per-track bounded rings. Tracks are created during setup (add_track, on
/// the control thread); each track is then written by exactly ONE thread,
/// so recording is lock-free by construction. Export runs at quiescence.
class FlightRecorder {
 public:
  FlightRecorder(ClockFn clock, const void* clock_ctx, FlightConfig cfg = {})
      : clock_(clock), clock_ctx_(clock_ctx), cfg_(cfg) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  SimTime now() const { return clock_(clock_ctx_); }

  /// Registers a named export track and returns its id. Call during setup,
  /// on the control thread, before traffic flows (shard storage must not
  /// move under a concurrent writer).
  std::uint16_t add_track(std::string_view name);
  std::size_t track_count() const noexcept { return shards_.size(); }

  /// Records at the recorder's current sim time (control thread only —
  /// the clock source is not thread-safe).
  void record(std::uint16_t track, FlightStage stage, std::uint64_t trace_id,
              std::uint64_t arg = 0) {
    if (!enabled()) return;
    record_at(track, now(), stage, trace_id, arg);
  }

  /// Records with an explicit timestamp. Safe from the track's owning
  /// thread (engine workers pass the job's submit-time sim clock).
  void record_at(std::uint16_t track, SimTime at, FlightStage stage,
                 std::uint64_t trace_id, std::uint64_t arg = 0);

  FlightStats stats() const;

  /// Reconstructs every traced ADU's journey. Call at quiescence.
  FlightTable latency_table() const;

  /// Chrome/Perfetto trace_event JSON (one track per component/worker,
  /// trace ids as flow arrows). Call at quiescence. Deterministic.
  std::string to_perfetto_json() const;

  /// Writes the event, drop and track counters.
  void emit_metrics(MetricSink& sink) const;

  void clear();

 private:
  struct Shard {
    explicit Shard(std::string name_, std::size_t capacity)
        : name(std::move(name_)), ring(capacity) {}
    std::string name;
    std::vector<FlightEvent> ring;            ///< fixed capacity, wraps
    std::atomic<std::uint64_t> head{0};       ///< events ever written
    std::atomic<std::uint64_t> dropped{0};    ///< overwritten events
  };

  /// Chronological (oldest-first) copy of one shard's surviving events.
  std::vector<FlightEvent> shard_events(const Shard& s) const;

  ClockFn clock_;
  const void* clock_ctx_;
  FlightConfig cfg_;
  std::atomic<bool> enabled_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

#else  // NGP_OBS_ENABLED == 0: the recorder compiles to nothing.

class FlightRecorder {
 public:
  FlightRecorder(ClockFn, const void*, FlightConfig = {}) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_enabled(bool) noexcept {}
  bool enabled() const noexcept { return false; }
  SimTime now() const noexcept { return 0; }
  std::uint16_t add_track(std::string_view) { return 0; }
  std::size_t track_count() const noexcept { return 0; }
  void record(std::uint16_t, FlightStage, std::uint64_t,
              std::uint64_t = 0) noexcept {}
  void record_at(std::uint16_t, SimTime, FlightStage, std::uint64_t,
                 std::uint64_t = 0) noexcept {}
  FlightStats stats() const { return {}; }
  FlightTable latency_table() const { return {}; }
  std::string to_perfetto_json() const {
    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  }
  void emit_metrics(MetricSink&) const {}
  void clear() noexcept {}
};

#endif  // NGP_OBS_ENABLED

/// Null-safe recording helper: the single gate every call site uses, so a
/// detached component (flight == nullptr) or a disabled/OFF build costs at
/// most one branch.
inline void flight_record(FlightRecorder* f, std::uint16_t track,
                          FlightStage stage, std::uint64_t trace_id,
                          std::uint64_t arg = 0) {
  if (f != nullptr) f->record(track, stage, trace_id, arg);
}

/// Convenience: a flight recorder driven by `loop`'s simulated clock.
template <typename Loop>
FlightRecorder make_loop_flight_recorder(const Loop& loop,
                                         FlightConfig cfg = {}) {
  return FlightRecorder(&loop_clock<Loop>, &loop, cfg);
}

}  // namespace ngp::obs
