// supervisor.h — supervised recovery for one ALF association.
//
// An AlfSender/AlfReceiver pair fails terminally: the receiver's stall
// watchdog (or the sender's dead-feedback watchdog) fires on_session_failed
// and the endpoints go inert. The paper's architecture makes that failure
// RECOVERABLE at almost no protocol cost: ADU ids are stable recovery
// handles, complete ADUs were already delivered out of order, and no
// connection byte-stream state existed to lose. SessionSupervisor
// (DESIGN.md §10.1) exploits exactly that:
//
//   * it owns both endpoints and buffers a plaintext copy of every ADU the
//     application offered (the memory cost of supervision — documented,
//     bounded, released as the session completes);
//   * on failure it snapshots the receiver's closed-ADU books
//     (resume_summary — bookkeeping that deliberately survives failure),
//     waits out a capped, seeded-jitter backoff, then rebuilds BOTH
//     endpoints under a bumped epoch: the sim is single-threaded, so the
//     teardown/rebuild happens atomically within one event callback and no
//     in-flight frame can reach a dangling handler;
//   * the new incarnation re-establishes with a RESUME frame (new epoch +
//     received-ADU bitmap, retried until the sender hears it): the sender
//     re-stages only never-closed ADUs under their ORIGINAL ids — delta
//     resume — and stale frames from the dead incarnation are dropped by
//     the receiver's epoch guard;
//   * a retry budget turns repeated failure into one permanent-failure
//     report: supervision degrades, it never loops forever.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/session.h"
#include "netsim/net_path.h"
#include "util/event_loop.h"
#include "util/result.h"
#include "util/rng.h"

namespace ngp::obs {
class MetricSink;
class MetricsRegistry;
class FlightRecorder;
}  // namespace ngp::obs

namespace ngp::resilience {

/// Recovery state machine (DESIGN.md §10.1).
enum class SupervisorState : std::uint8_t {
  kRunning = 0,   ///< endpoints live, traffic flowing
  kBackoff = 1,   ///< failure observed, restart timer pending
  kResuming = 2,  ///< new incarnation up, RESUME not yet acknowledged
  kCompleted = 3, ///< receiver closed every ADU up to DONE
  kFailed = 4,    ///< restart budget exhausted: permanent failure
};

const char* to_string(SupervisorState s) noexcept;

struct SupervisorConfig {
  /// Base session parameters. epoch/first_adu_id are overridden per
  /// incarnation; everything else is reused verbatim.
  alf::SessionConfig session;
  /// Seed for restart-backoff jitter (0 = derive from session_id).
  std::uint64_t seed = 0;
  /// Restarts allowed before the supervisor declares permanent failure.
  int max_restarts = 5;
  /// Restart backoff: base << consecutive-attempt, capped at 2 s, plus
  /// seeded jitter of up to a quarter of the backoff.
  SimDuration restart_backoff = 50 * kMillisecond;
  /// RESUME retransmits (one every 40 ms while the sender has not resumed)
  /// allowed before the attempt itself counts as a failure.
  int max_resume_retries = 10;
  /// Engine, pool and plan applied to every receiver incarnation: a
  /// restart rebuilds the receiver with the same attach set (the dead
  /// incarnation's partial chains recycle on destruction, delivered
  /// payloads stay host-order across incarnations). Everything it points
  /// at must outlive the supervisor.
  alf::ReceiverAttach attach;
};

struct SupervisorStats {
  std::uint64_t failures_observed = 0;  ///< endpoint on_session_failed firings
  std::uint64_t restarts = 0;           ///< incarnations built after the first
  std::uint64_t resume_frames_sent = 0;
  std::uint64_t resume_retries = 0;     ///< RESUMEs after the first per attempt
  std::uint64_t adus_resent = 0;        ///< re-staged under their old ids
  std::uint64_t adus_resume_skipped = 0;///< bitmap said already closed
  std::uint64_t gave_up = 0;            ///< 1 once permanently failed
  std::size_t store_bytes = 0;          ///< plaintext copies held for resume
};

/// Supervises one ALF association end-to-end. `data` carries fragments
/// (sender sends, receiver listens), `feedback_tx` carries receiver->sender
/// control (the supervisor also sends RESUME here), `feedback_rx` is the
/// sender's view of the same feedback channel. The supervisor re-registers
/// all path handlers on every restart.
class SessionSupervisor {
 public:
  SessionSupervisor(EventLoop& loop, NetPath& data, NetPath& feedback_tx,
                    NetPath& feedback_rx, SupervisorConfig config);

  SessionSupervisor(const SessionSupervisor&) = delete;
  SessionSupervisor& operator=(const SessionSupervisor&) = delete;
  ~SessionSupervisor();

  /// Offers one ADU. While running, forwards to the sender and returns the
  /// assigned id; during recovery the ADU is deferred and (re)offered once
  /// the session resumes — then the returned id is 0 ("queued").
  Result<std::uint32_t> send_adu(const AduName& name, ConstBytes payload);

  /// Marks the application's stream complete (forwarded to the current or
  /// next sender incarnation).
  void finish();

  // Receiver-side application callbacks, survive restarts.
  void set_on_adu(std::function<void(Adu&&)> fn);
  /// Chain delivery (see AlfReceiver::set_on_adu_chain) — re-installed on
  /// every incarnation, so the zero-copy handoff survives restarts too.
  void set_on_adu_chain(std::function<void(AduChain&&)> fn);
  void set_on_adu_lost(
      std::function<void(std::uint32_t, const AduName&, bool)> fn);
  void set_on_complete(std::function<void()> fn);
  /// Fires exactly once if the restart budget is exhausted.
  void set_on_permanent_failure(std::function<void()> fn) {
    on_permanent_failure_ = std::move(fn);
  }
  /// Overload-shedding rank for every receiver incarnation.
  void set_priority(alf::PriorityFn fn);

  SupervisorState state() const noexcept { return state_; }
  std::uint8_t epoch() const noexcept { return epoch_; }
  const SupervisorStats& stats() const noexcept { return stats_; }
  /// Current incarnation (rebuilt across restarts — do not cache).
  alf::AlfSender& sender() { return *sender_; }
  alf::AlfReceiver& receiver() { return *receiver_; }

  /// Writes supervisor counters plus state/epoch gauges.
  void emit_metrics(obs::MetricSink& sink) const;
  void register_metrics(obs::MetricsRegistry& reg, std::string prefix) const;
  /// Attaches the flight recorder on a new "supervisor" track (epoch-resume
  /// events) and to every endpoint incarnation.
  void set_flight(obs::FlightRecorder* flight);

 private:
  struct StoredAdu {
    AduName name;
    ByteBuffer payload;
  };

  void build_endpoints();
  void on_endpoint_failed();
  void schedule_restart();
  void do_restart();
  void send_resume();
  void on_resume_heard(const alf::ResumeMessage& msg);
  void on_receiver_complete();
  void fail_permanently();
  void cancel_pending();
  alf::SessionConfig incarnation_config() const;

  EventLoop& loop_;
  NetPath& data_;
  NetPath& feedback_tx_;
  NetPath& feedback_rx_;
  SupervisorConfig cfg_;
  Rng jitter_rng_;
  SupervisorState state_ = SupervisorState::kRunning;
  std::uint8_t epoch_ = 0;
  int restarts_done_ = 0;
  int resume_retries_left_ = 0;
  EventId restart_timer_ = 0;
  EventId resume_timer_ = 0;
  bool app_finished_ = false;

  std::unique_ptr<alf::AlfSender> sender_;
  std::unique_ptr<alf::AlfReceiver> receiver_;

  /// Plaintext copies of every offered-and-not-yet-closed ADU, keyed by
  /// assigned id: what delta resume re-stages. Entries the RESUME bitmap
  /// reports closed are dropped at restart time.
  std::map<std::uint32_t, StoredAdu> store_;
  /// ADUs offered while no sender incarnation could take them.
  std::vector<StoredAdu> deferred_;
  alf::ResumeSummary resume_snapshot_;  ///< books carried across the restart

  SupervisorStats stats_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;

  std::function<void(Adu&&)> on_adu_;
  std::function<void(AduChain&&)> on_adu_chain_;
  std::function<void(std::uint32_t, const AduName&, bool)> on_adu_lost_;
  std::function<void()> on_complete_;
  std::function<void()> on_permanent_failure_;
  alf::PriorityFn priority_;
};

}  // namespace ngp::resilience
