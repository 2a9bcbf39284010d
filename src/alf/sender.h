// sender.h — ALF sending endpoint.
//
// The sender-side realization of Application Level Framing:
//
//   * the application hands over whole named ADUs (never an anonymous byte
//     stream) — send_adu();
//   * each ADU is checksummed and (optionally) encrypted as a unit, then
//     fragmented into self-describing transmission units sized to the path
//     (packets or cells — the sender does not care, §5);
//   * transmission is paced at the session rate: flow control is
//     out-of-band and never gates the manipulation pipeline (§3);
//   * loss recovery honours the application's chosen policy (§5): the
//     transport buffers, or asks the application to recompute, or does
//     nothing (real-time).
//
// Note what is absent: no in-order machinery, no byte sequence space, no
// cumulative ACK. The ADU id exists purely as a recovery handle.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "alf/adu.h"
#include "alf/session.h"
#include "alf/wire.h"
#include "netsim/net_path.h"
#include "obs/cost.h"
#include "presentation/plan.h"
#include "util/event_loop.h"
#include "util/result.h"

namespace ngp::obs {
class MetricSink;
class MetricsRegistry;
class FlightRecorder;
}  // namespace ngp::obs

namespace ngp::alf {

struct SenderStats {
  std::uint64_t adus_sent = 0;
  std::uint64_t adus_retransmitted = 0;   ///< whole-ADU resends
  std::uint64_t adus_recomputed = 0;      ///< via application callback
  std::uint64_t nacks_ignored = 0;        ///< policy kNone or data gone
  std::uint64_t fragments_sent = 0;
  std::uint64_t fec_parity_sent = 0;  ///< parity fragments (subset of above)
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t progress_received = 0;
  std::uint64_t resumes_received = 0;   ///< RESUME frames (supervised restart)
  std::uint64_t adus_resumed = 0;       ///< re-staged under their old ids
  std::size_t retransmit_buffer_bytes = 0;
  std::size_t retransmit_buffer_peak = 0;
  std::uint64_t watchdog_fired = 0;  ///< gave up on a dead feedback channel
  std::size_t names_held = 0;  ///< names kept for recompute (that policy only)
};

/// Regenerates an ADU's payload on demand (policy kApplicationRecompute).
/// Return nullopt if the application can no longer produce it.
using RecomputeFn = std::function<std::optional<ByteBuffer>(std::uint32_t adu_id,
                                                            const AduName& name)>;

/// ALF sending endpoint for one association.
class AlfSender {
 public:
  /// `data_out` carries fragments; `feedback_in` delivers NACK/PROGRESS
  /// (handler registered here).
  AlfSender(EventLoop& loop, NetPath& data_out, NetPath& feedback_in,
            SessionConfig config);

  /// Demux-fed variant (sessiond): `feedback_in` may be null, in which
  /// case no handler is registered and feedback arrives only through
  /// handle_feedback() — the sender shares its feedback ingress with
  /// every other session behind a Dispatcher.
  AlfSender(EventLoop& loop, NetPath& data_out, NetPath* feedback_in,
            SessionConfig config);

  /// Public demux entry: processes one raw feedback frame exactly as the
  /// path handler would (validation included).
  void handle_feedback(ConstBytes frame) { on_feedback(frame); }

  AlfSender(const AlfSender&) = delete;
  AlfSender& operator=(const AlfSender&) = delete;

  /// Cancels every pending timer (pace, DONE retry, watchdog): destroying
  /// a sender mid-session — exactly what a supervisor's restart does —
  /// must leave no event that would call into freed memory, and must not
  /// fire on_session_failed from teardown.
  ~AlfSender();

  /// Queues one ADU. `payload` must already be in the session's transfer
  /// syntax (the application/presentation produced it — the sender
  /// transport does not convert). Returns the assigned ADU id, or an error
  /// if the retransmit buffer is full.
  Result<std::uint32_t> send_adu(const AduName& name, ConstBytes payload);

  /// Zero-staging variant (DESIGN.md §12): the application produced the
  /// payload directly inside a pool segment and hands the slice over. The
  /// sender prepares IN PLACE — the checksum is a load-only pass and
  /// encryption (if configured) ciphers the slice itself — so the staging
  /// copy the flat path pays never happens. The slice is consumed: its
  /// bytes become the wire payload (post-encryption) and are retained or
  /// released per the session's retransmit policy like any other ADU.
  Result<std::uint32_t> send_adu(const AduName& name, buf::Slice payload);

  /// Fused encode-and-stage (DESIGN.md §13): marshals `record` with the
  /// compiled plan straight into the wire staging buffer — the presentation
  /// encode IS the staging pass — then checksums (load-only) and encrypts
  /// in place, exactly like the pooled path. The flat send_adu path's
  /// separate staging copy never happens. Falls back to the interpreted
  /// per-field encoder when the plan is not compiled (e.g. BER); the
  /// staging-copy saving still applies.
  Result<std::uint32_t> send_record(const AduName& name,
                                    const presentation::PresentationPlan& plan,
                                    const Record& record);

  /// Re-stages an ADU under an id assigned by a PREVIOUS incarnation of
  /// this session (supervised restart, DESIGN.md §10): the id must predate
  /// this sender's first_adu_id so the receiver's books reconcile. The
  /// payload is re-prepared (re-checksummed, re-encrypted with the id's
  /// nonce) exactly as the original was. Under kApplicationRecompute the
  /// id must also lie at most adu_id_window below first_adu_id, because
  /// the name book keeps a slot for every id from the lowest staged up.
  /// With no window set (0) that closeness is the caller's precondition;
  /// a previous incarnation's backlog meets it.
  Result<std::uint32_t> send_adu_as(std::uint32_t adu_id, const AduName& name,
                                    ConstBytes payload);

  /// Marks the stream complete; a DONE message follows the last fragment.
  void finish();

  /// Installs the application's recompute callback (policy
  /// kApplicationRecompute).
  void set_recompute(RecomputeFn fn) { recompute_ = std::move(fn); }

  /// Releases the retransmission copy of an ADU (e.g. the application
  /// knows the receiver no longer needs it). No-op for other policies.
  void release_adu(std::uint32_t adu_id);

  /// Fires once if, after finish(), the feedback channel stays silent for
  /// SessionConfig::stall_timeout: instead of waiting forever for the
  /// DONE-ack, the sender releases its buffers and reports the failure.
  void set_on_session_failed(std::function<void()> fn) {
    on_session_failed_ = std::move(fn);
  }

  /// Fires when a RESUME frame for this session arrives on the feedback
  /// path (the receiver side re-establishing after a failure). The
  /// supervisor re-stages the not-yet-closed ADUs in response; a bare
  /// sender ignores RESUME.
  void set_on_resume(std::function<void(const ResumeMessage&)> fn) {
    on_resume_ = std::move(fn);
  }

  /// True once all queued fragments (and DONE, if finished) have left.
  bool idle() const noexcept { return queue_.empty() && !pace_timer_armed_; }

  bool failed() const noexcept { return failed_; }

  std::uint32_t next_adu_id() const noexcept { return next_adu_id_; }
  const SenderStats& stats() const noexcept { return stats_; }
  const SessionConfig& config() const noexcept { return cfg_; }

  /// §4 cost ledger for outbound manipulation (checksum/copy/encrypt).
  const obs::CostAccount& manipulation_cost() const noexcept { return manip_cost_; }
  /// Writes all counters (stats + cost) into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;
  /// Registers emit_metrics under `prefix` (e.g. "alf.tx"). The sender
  /// must outlive the registry or be removed first.
  void register_metrics(obs::MetricsRegistry& reg, std::string prefix) const;
  /// Attaches the per-ADU flight recorder on a new "alf.tx" track:
  /// staged / fragment-tx / retransmit-tx events (null = untraced).
  void set_flight(obs::FlightRecorder* flight);

 private:
  struct PendingFragment {
    std::uint32_t adu_id;
    std::uint32_t frag_off;   ///< group start offset for parity fragments
    std::uint16_t frag_len;
    bool is_retransmit;
    bool is_parity = false;
    std::uint32_t parity_index = 0;  ///< index into BufferedAdu::parity_blocks
  };

  struct BufferedAdu {
    AduName name;
    ByteBuffer wire_payload{};  ///< wire bytes in a sender-owned buffer...
    buf::Slice pooled{};        ///< ...or in the application's pool slice
    std::vector<ByteBuffer> parity_blocks{};  ///< FEC parity, one per group
    std::uint32_t checksum = 0;
    std::uint8_t flags = 0;
    std::size_t queued_fragments = 0;  ///< fragments not yet transmitted

    /// The wire bytes (post-encryption once prepared), wherever they live.
    ConstBytes wire_bytes() const noexcept {
      return pooled.ref ? ConstBytes{pooled.bytes()}
                        : ConstBytes{wire_payload.span()};
    }
    MutableBytes mutable_wire_bytes() noexcept {
      return pooled.ref ? pooled.mutable_bytes() : wire_payload.span();
    }
  };

  /// The checks every entry runs before it touches the payload: failed
  /// session, empty, too large, retransmit buffer full — in that order.
  Status admit(std::size_t len) const;
  /// The ConstBytes entries' staging copy: the caller keeps its bytes, so
  /// they are stored once into a sender-owned buffer (one charged pass).
  ByteBuffer copy_in(ConstBytes payload);
  /// The sender's one manipulation site: a load-only checksum, then (if
  /// configured) encryption in place under `adu_id`'s nonce.
  void prepare(std::uint32_t adu_id, BufferedAdu& b);
  /// The one staging body for an admitted ADU: prepares it, retains it,
  /// accounts for it and queues its fragments.
  std::uint32_t stage(std::uint32_t adu_id, BufferedAdu b);
  /// Queues an ADU's fragments (and FEC parity). Retransmissions go to the
  /// FRONT of the queue: recovery latency is what stalls the receiver's
  /// pipeline, so recovered data must not wait behind the backlog.
  void enqueue_adu_fragments(std::uint32_t adu_id, bool retransmit);
  void pump();               ///< sends fragments respecting pacing
  void send_fragment(const PendingFragment& pf);
  void on_feedback(ConstBytes frame);
  void handle_nack(const NackMessage& m);

  EventLoop& loop_;
  NetPath& out_;
  NetPath* feedback_in_ = nullptr;  ///< path whose handler this sender owns
  SessionConfig cfg_;
  SenderStats stats_;
  obs::CostAccount manip_cost_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;
  RecomputeFn recompute_;

  void send_done();

  void watchdog_tick();
  /// Dead-feedback verdict: release everything, tell the application once.
  void fail_session();

  std::uint32_t next_adu_id_ = 1;  // 0 reserved
  bool finished_ = false;
  bool done_sent_ = false;
  bool peer_complete_ = false;  ///< receiver reported everything closed
  bool failed_ = false;         ///< feedback watchdog gave up
  int done_retries_left_ = 8;  ///< bounded unsolicited DONE re-sends
  EventId done_timer_ = 0;     ///< pending retry (cancelled on completion)
  bool watchdog_armed_ = false;
  EventId watchdog_timer_ = 0;  ///< cancelled on DONE-ack so a completed
                                ///< session leaves no event pending
  SimTime last_feedback_at_ = 0;  ///< any valid feedback for our session
  std::function<void()> on_session_failed_;
  std::function<void(const ResumeMessage&)> on_resume_;

  /// Names for kApplicationRecompute: the callback needs an ADU's name
  /// after its store entry is gone, and no other policy keeps them. One
  /// contiguous slot per id from the lowest id staged up. Ids are dense
  /// (sequential from first_adu_id, send_adu_as ids at most adu_id_window
  /// below it), so the book grows at either end by doubling: a few dozen
  /// allocations over an association, where a map node per ADU would live
  /// for the whole session between the transient ADU buffers and fragment
  /// the heap.
  class NameBook {
   public:
    void put(std::uint32_t adu_id, const AduName& name);
    /// The name staged under `adu_id`, or null.
    const AduName* find(std::uint32_t adu_id) const noexcept;
    std::size_t size() const noexcept { return held_; }
    /// Empties the book and releases its memory.
    void clear() noexcept;

   private:
    struct Slot {
      AduName name;
      bool held = false;
    };
    std::vector<Slot> slots_;
    std::uint32_t base_ = 0;  ///< id of slots_[0]
    std::size_t held_ = 0;
  };

  // ADUs retained for retransmission (policy-dependent).
  std::map<std::uint32_t, BufferedAdu> store_;
  NameBook names_;

  std::deque<PendingFragment> queue_;
  bool pace_timer_armed_ = false;
  EventId pace_timer_ = 0;  ///< cancelled on destruction (restart safety)
  SimTime next_send_at_ = 0;

  std::size_t frag_capacity_;
  /// The one buffer every data and parity fragment is encoded into, sized
  /// once to kHeaderSize + frag_capacity_. NetPath::send borrows a frame
  /// only for the call, so the buffer is free again when send returns.
  ByteBuffer frame_;
  /// Inside out_.send(frame_). Set and checked only in debug builds; it
  /// is declared in all of them so AlfSender's layout does not depend on
  /// NDEBUG.
  bool frame_lent_ = false;
};

}  // namespace ngp::alf
