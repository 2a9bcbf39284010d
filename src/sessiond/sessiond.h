// sessiond.h — the many-session plane and the redesigned session API
// (DESIGN.md §11).
//
// Everything below replaces the repo's original endpoint idiom —
// "construct an AlfSender, construct an AlfReceiver against the same
// paths, staple callbacks onto each by hand" — with two cooperating
// pieces:
//
//   * Dispatcher: binds shared ingress paths, peeks the session id off
//     each arriving frame (alf::peek_flow_id — demux is the one control
//     step §6 concedes), and routes it to the owning session in a sharded
//     SessionTable, creating sessions on first frame via a registered
//     SessionFactory. This is how ONE host terminates 100k+ flows: no
//     per-session ingress path, no per-session handler registration.
//
//   * Sessiond::open(config, paths, opts) -> SessionHandle: the facade
//     for deliberately-opened associations. One call validates the
//     config, builds the endpoints (supervised via ngp::resilience when
//     opts.supervisor holds a restart policy), registers the flow in the
//     table (pinned — never idle-swept), and returns an RAII handle that
//     closes the session on destruction. The handle reaches its
//     AlfSession through `->`; the config and the attach set are each
//     given once, to open().
//
// The sim stays deterministic: open() builds endpoints in the exact order
// the hand-wired examples did, so a migrated program replays the same
// event sequence byte for byte.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/session.h"
#include "netsim/net_path.h"
#include "obs/flight.h"
#include "resilience/supervisor.h"
#include "sessiond/session_table.h"
#include "util/event_loop.h"
#include "util/result.h"

namespace ngp::sessiond {

class Sessiond;

/// Routes raw ingress frames to table-resident sessions. dispatch() may
/// run from many threads: distinct shards proceed in parallel, one flow's
/// frames serialize behind its shard lock. Setup calls (bind, set_factory,
/// set_flight) belong to the control thread, before traffic.
class Dispatcher {
 public:
  Dispatcher(EventLoop& loop, SessionTable& table)
      : loop_(loop), table_(table) {}
  /// Clears the handler bind() installed on every bound path: each closes
  /// over `this`, so a frame arriving after teardown would call into freed
  /// memory; now it drops on a handlerless path. The bound paths must
  /// outlive the dispatcher.
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Create-on-first-frame hook. Unset (or returning null) means unknown
  /// flows are dropped and counted unroutable.
  void set_factory(SessionFactory fn) { factory_ = std::move(fn); }

  /// Registers this dispatcher as `ingress`'s frame handler under an
  /// auto-assigned peer address (returned). Frames from different bound
  /// paths with the same session id are different flows.
  std::uint32_t bind(NetPath& ingress);
  /// Same, under an explicit peer address.
  void bind(NetPath& ingress, std::uint32_t peer);

  /// Routes one frame: peek flow id -> shard lookup -> session->on_frame,
  /// creating the session via the factory on first frame.
  void dispatch(std::uint32_t peer, ConstBytes frame);

  struct Stats {
    std::uint64_t frames_dispatched = 0;
    std::uint64_t frames_routed = 0;     ///< delivered to an existing session
    std::uint64_t sessions_created = 0;  ///< create-on-first-frame successes
    std::uint64_t frames_unroutable = 0; ///< unpeekable / no factory
    std::uint64_t creates_rejected = 0;  ///< admission control said no
  };
  Stats stats() const;

  void emit_metrics(obs::MetricSink& sink) const;
  /// kSessionCreate events on an existing flight track (single-threaded
  /// dispatch only — flight tracks are single-writer).
  void set_flight(obs::FlightRecorder* flight, std::uint16_t track) noexcept {
    flight_ = flight;
    flight_track_ = track;
  }

 private:
  EventLoop& loop_;
  SessionTable& table_;
  SessionFactory factory_;
  std::vector<NetPath*> bound_;  ///< every path bind() set a handler on
  std::atomic<std::uint32_t> next_peer_{1};
  std::atomic<std::uint64_t> frames_dispatched_{0};
  std::atomic<std::uint64_t> frames_routed_{0};
  std::atomic<std::uint64_t> sessions_created_{0};
  std::atomic<std::uint64_t> frames_unroutable_{0};
  std::atomic<std::uint64_t> creates_rejected_{0};
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;
};

/// The three NetPaths one ALF association runs over, exactly as the
/// hand-wired pattern used them: the sender transmits on `data` and the
/// receiver listens on it; the receiver transmits NACK/PROGRESS on
/// `feedback_tx` and the sender listens on `feedback_rx` (usually two
/// views of one reverse channel).
struct SessionPaths {
  NetPath* data = nullptr;
  NetPath* feedback_tx = nullptr;
  NetPath* feedback_rx = nullptr;
};

/// Per-open knobs beyond the SessionConfig itself.
struct OpenOptions {
  /// Opts into supervisor-per-session resilience under this restart
  /// policy: the association is owned by a resilience::SessionSupervisor
  /// (restart + delta resume) built from open()'s config and `attach`,
  /// instead of by a bare endpoint pair.
  std::optional<resilience::SupervisorConfig> supervisor;
  /// The receive side's engine, pool and plan (every incarnation, under
  /// supervision): one engine is flow+adu sharded across every session;
  /// closing, shedding or evicting the session recycles its reassembly
  /// chains; the plan must match the session's negotiated syntax.
  /// Everything it points at must outlive the sessiond.
  alf::ReceiverAttach attach{};
  /// Peer address for the flow id; 0 = auto-assign a fresh one (so two
  /// opens with the same session id never collide unless asked to).
  std::uint32_t peer = 0;
};

/// One table-resident ALF association: either a supervisor or a bare
/// sender/receiver pair, plus the type-based frame demux a shared ingress
/// needs. Built by Sessiond::open().
class AlfSession final : public Session {
 public:
  /// Demux routing: data-direction frames (DATA/DONE) to the receiver,
  /// feedback-direction frames (NACK/PROGRESS/RESUME) to the sender.
  /// Directions without an endpoint drop the frame (the peer's problem).
  void on_frame(ConstBytes frame) override;

  /// Current endpoints. Under supervision these are the current
  /// incarnation — do not cache across restarts.
  alf::AlfSender& sender() { return sup_ ? sup_->sender() : *sender_; }
  alf::AlfReceiver& receiver() { return sup_ ? sup_->receiver() : *receiver_; }
  resilience::SessionSupervisor* supervisor() noexcept { return sup_.get(); }

  // Unified association surface (forwarded to the supervisor when
  // supervised, so callbacks survive restarts).
  Result<std::uint32_t> send_adu(const AduName& name, ConstBytes payload);
  void finish();
  void set_on_adu(std::function<void(Adu&&)> fn);
  /// Chain delivery (zero-copy handoff; see AlfReceiver::set_on_adu_chain).
  void set_on_adu_chain(std::function<void(AduChain&&)> fn);
  void set_on_adu_lost(
      std::function<void(std::uint32_t, const AduName&, bool)> fn);
  void set_on_complete(std::function<void()> fn);
  void set_priority(alf::PriorityFn fn);

 private:
  friend class Sessiond;
  AlfSession() = default;

  std::unique_ptr<resilience::SessionSupervisor> sup_;
  std::unique_ptr<alf::AlfSender> sender_;
  std::unique_ptr<alf::AlfReceiver> receiver_;
};

/// RAII ownership of an opened session: close() (or destruction) removes
/// the flow from the table and destroys the endpoints. Move-only. The
/// Sessiond must outlive its handles.
class SessionHandle {
 public:
  SessionHandle() = default;
  SessionHandle(SessionHandle&& o) noexcept { *this = std::move(o); }
  SessionHandle& operator=(SessionHandle&& o) noexcept;
  SessionHandle(const SessionHandle&) = delete;
  SessionHandle& operator=(const SessionHandle&) = delete;
  ~SessionHandle() { close(); }

  bool valid() const noexcept { return session_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }
  FlowId flow() const noexcept { return flow_; }

  /// Ends the association now: unregisters the flow and destroys the
  /// endpoints (cancelling their timers). Safe to call repeatedly.
  void close();

  /// The association this handle owns; the handle must be valid.
  AlfSession* operator->() const noexcept {
    assert(session_ != nullptr);
    return session_;
  }
  AlfSession& operator*() const noexcept { return *operator->(); }

 private:
  friend class Sessiond;
  SessionHandle(Sessiond* owner, FlowId flow, AlfSession* session)
      : owner_(owner), flow_(flow), session_(session) {}

  Sessiond* owner_ = nullptr;
  FlowId flow_{};
  AlfSession* session_ = nullptr;
};

/// Options for alf_receiver_factory(): the attach set every
/// factory-created receiver gets — the server shape's live-traffic path,
/// thousands of receivers behind one engine, one pool and one compiled
/// plan — plus a per-session configurator. Derived from ReceiverAttach,
/// so its fields are set by name (`opts.rx_pool = &pool`).
struct ReceiverFactoryOptions : alf::ReceiverAttach {
  /// Per-session configurator, run right after construction: set on_adu /
  /// on_complete / priority here (the factory equivalent of the callback
  /// stapling open() handles do through their handle).
  std::function<void(const FlowId&, alf::AlfReceiver&)> configure;
};

/// SessionFactory for demux-fed receive-side sessions: each new flow gets
/// an AlfReceiver built from `base` (session_id overridden by the flow's),
/// sending feedback out `feedback_out`, consuming frames only through the
/// dispatcher. This is the server shape: thousands of receivers, one
/// ingress, one feedback egress. Each flow is a single allocation — the
/// receiver is embedded in the table-resident session object.
SessionFactory alf_receiver_factory(EventLoop& loop, NetPath& feedback_out,
                                    alf::SessionConfig base,
                                    ReceiverFactoryOptions opts = {});

struct SessiondConfig {
  SessionTableConfig table;
};

/// The facade that owns the table and the dispatcher.
class Sessiond {
 public:
  using Config = SessiondConfig;

  explicit Sessiond(EventLoop& loop, Config cfg = {});
  Sessiond(const Sessiond&) = delete;
  Sessiond& operator=(const Sessiond&) = delete;

  /// Opens one full association over `paths`: validates `session`, builds
  /// the endpoints (exactly the hand-wired construction order, so
  /// migrated programs stay byte-identical), registers the flow pinned in
  /// the table, and returns the owning handle. Errors: validation
  /// failures, missing paths, duplicate (peer, session_id).
  Result<SessionHandle> open(const alf::SessionConfig& session,
                             const SessionPaths& paths, OpenOptions opts = {});

  /// Dispatcher ingress binding (see Dispatcher::bind).
  std::uint32_t bind(NetPath& ingress) { return dispatcher_.bind(ingress); }
  void bind(NetPath& ingress, std::uint32_t peer) {
    dispatcher_.bind(ingress, peer);
  }
  /// Create-on-first-frame hook (see Dispatcher::set_factory).
  void set_factory(SessionFactory fn) { dispatcher_.set_factory(std::move(fn)); }

  /// Idle GC at the loop's now; the caller picks the cadence. Returns the
  /// evicted count.
  std::size_t sweep_idle() { return table_.sweep_idle(loop_.now()); }

  SessionTable& table() noexcept { return table_; }
  Dispatcher& dispatcher() noexcept { return dispatcher_; }
  EventLoop& loop() noexcept { return loop_; }

  /// Observes evictions (idle/shed) of any table-resident session.
  void set_on_evict(std::function<void(const FlowId&, EvictReason)> fn) {
    on_evict_ = std::move(fn);
  }

  /// One "sessiond" flight track: kSessionCreate on dispatcher creates,
  /// kSessionEvict on idle/shed evictions (single-threaded sim only).
  /// Idempotent per recorder (repeat calls reuse the cached track); null
  /// disables recording and a later re-enable picks the track back up.
  void set_flight(obs::FlightRecorder* flight);

  /// Writes the table's counters under "table." (per-shard nested) and
  /// the dispatcher's under "dispatch.".
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  friend class SessionHandle;

  EventLoop& loop_;
  SessionTable table_;
  Dispatcher dispatcher_;
  std::uint32_t next_open_peer_ = 0x40000000;  ///< disjoint from bind() peers
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;
  obs::FlightRecorder* tracked_flight_ = nullptr;  ///< recorder the cached
  std::uint16_t tracked_track_ = 0;                ///< track was added on
  std::function<void(const FlowId&, EvictReason)> on_evict_;
};

}  // namespace ngp::sessiond
