// receiver.h — ALF receiving endpoint: the two-stage receive path of §6.
//
// Stage 1 (per transmission unit, control only): verify the fragment
// header, demux by session and ADU id, place the payload at its offset in
// the ADU's reassembly chain — by reference when the fragment sits in the
// ingress frame's pool segment, by one copy otherwise (DESIGN.md §12). The
// fragment tells us everything — no connection byte-stream state, no
// ordering requirement.
//
// Stage 2 (per complete ADU, manipulation): the moment an ADU's last byte
// arrives — regardless of the fate of earlier ADUs — run the integrated
// manipulation pass over the chain (decrypt + integrity verify, fused when
// the session selects ProcessMode::kIntegrated) and hand the ADU to the
// application.
// Complete ADUs are therefore delivered out of order; the presentation /
// application pipeline never stalls behind a hole the way the in-order
// stream transport does.
//
// Loss is reported in application terms (§5): the on_adu_lost callback
// receives the ADU's application name whenever any fragment of it was seen.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "alf/adu.h"
#include "alf/session.h"
#include "alf/wire.h"
#include "ilp/pipeline.h"
#include "netsim/net_path.h"
#include "obs/cost.h"
#include "util/event_loop.h"
#include "util/rng.h"

namespace ngp::obs {
class MetricSink;
class MetricsRegistry;
class FlightRecorder;
}  // namespace ngp::obs

namespace ngp::engine {
class Engine;
}  // namespace ngp::engine

namespace ngp::presentation {
struct PresentationPlan;
}  // namespace ngp::presentation

namespace ngp::alf {

struct ReceiverStats {
  std::uint64_t fragments_received = 0;
  std::uint64_t fragments_corrupt = 0;     ///< header damage (decode drop)
  std::uint64_t fragments_duplicate = 0;   ///< fully redundant bytes
  std::uint64_t fragments_for_done_adus = 0;
  std::uint64_t fragments_fec_reconstructed = 0;  ///< recovered via parity
  std::uint64_t adus_delivered = 0;
  std::uint64_t adus_delivered_out_of_order = 0;  ///< earlier id still open
  std::uint64_t adus_checksum_failed = 0;
  std::uint64_t adus_abandoned = 0;        ///< gave up after max_nacks
  std::uint64_t nacks_sent = 0;
  std::uint64_t nack_ids_sent = 0;
  std::uint64_t progress_sent = 0;
  std::uint64_t payload_bytes_delivered = 0;
  std::size_t reassembly_bytes_peak = 0;

  // Hardened-path counters (hostile substrates; see SessionConfig bounds).
  std::uint64_t fragments_oversized = 0;     ///< adu_len > max_adu_len (also corrupt)
  std::uint64_t fragments_out_of_window = 0; ///< adu_id beyond window (also corrupt)
  std::uint64_t fragments_dropped_mem = 0;   ///< no reassembly room even after eviction
                                             ///< (claim or pinned pool memory)
  std::uint64_t reassembly_evictions = 0;    ///< incomplete ADUs evicted for space
  std::uint64_t watchdog_fired = 0;          ///< stall watchdog abandoned the session
  std::uint64_t fragments_stale_epoch = 0;   ///< stamped with another epoch
  std::uint64_t adus_shed = 0;               ///< dropped by the overload policy

  /// ADUs whose stage-2 manipulation ran as an engine job (0 when inline).
  std::uint64_t adus_engine_offloaded = 0;

  // Zero-copy datapath counters (DESIGN.md §12).
  std::uint64_t fragments_zero_copy = 0;    ///< placed by reference (no copy)
  std::uint64_t fragments_pool_copied = 0;  ///< placed by copy into copy blocks
  std::uint64_t adus_chain_delivered = 0;   ///< handed up as an AduChain

  /// ADUs whose presentation decode was fused into the stage-2 pass (a
  /// compiled plan was attached and its wire stage rode the verify kernel).
  std::uint64_t adus_presentation_fused = 0;
};

/// What a receiver knows about a session's closed ADUs, extracted after a
/// failure and replayed into the restarted incarnation (DESIGN.md §10):
/// delivery state survives a supervised restart, so the sender retransmits
/// only what never completed.
struct ResumeSummary {
  std::uint32_t closed_prefix = 0;          ///< ids 1..prefix all closed
  std::vector<std::uint32_t> closed_above;  ///< closed ids above the prefix
  std::uint32_t delivered = 0;
  std::uint32_t abandoned = 0;
  std::uint32_t highest_seen = 0;
  std::uint32_t expected_total = 0;         ///< 0 if DONE was never seen
};

/// The per-flow options one receiver incarnation is attached to, declared
/// once: sessiond::OpenOptions, sessiond::ReceiverFactoryOptions and
/// resilience::SupervisorConfig each carry one, and AlfReceiver::attach
/// applies it whole. Everything it points at must outlive the receivers it
/// is attached to (and, for the pool, every chain they delivered).
struct ReceiverAttach {
  /// Stage-2 engine offload (AlfReceiver::set_engine); null = inline.
  engine::Engine* engine = nullptr;
  SimDuration engine_harvest_delay = 0;
  /// Pool for fragments placed by copy (AlfReceiver::set_rx_pool); null =
  /// buf::default_pool().
  buf::BufferPool* rx_pool = nullptr;
  /// Compiled presentation plan fused into stage 2
  /// (AlfReceiver::set_presentation); null = none.
  std::shared_ptr<const presentation::PresentationPlan> presentation;
};

/// Ranks an ADU for the overload shedding policy: lower = shed first.
/// Defaults to 0 for everything (shedding then falls back to least-progress
/// / youngest-id order).
using PriorityFn = std::function<int(const AduName&)>;

/// ALF receiving endpoint for one association.
///
/// One book records each ADU id's fate — missing, partial, verifying or
/// closed (§5: the id is the unit of recovery) — and stage 2 ends in one
/// settle() whether it ran inline or on the engine.
///
/// Timer lifecycle: maintenance timers (NACK scan, progress reports) arm on
/// first activity and stand down when there is nothing outstanding. A
/// session that has received data but not yet seen the sender's DONE keeps
/// a progress heartbeat running — that heartbeat is what lets the sender
/// repair a lost DONE — so a deliberately open long-lived session ticks at
/// progress_interval until it completes.
class AlfReceiver {
 public:
  /// `data_in` delivers fragments (handler registered here);
  /// `feedback_out` carries NACK/PROGRESS back to the sender.
  AlfReceiver(EventLoop& loop, NetPath& data_in, NetPath& feedback_out,
              SessionConfig config);

  /// Demux-fed variant (sessiond): `data_in` may be null, in which case no
  /// ingress handler is registered and frames arrive only through
  /// handle_frame() — the receiver shares its ingress path with every
  /// other session behind a Dispatcher instead of owning one.
  AlfReceiver(EventLoop& loop, NetPath* data_in, NetPath& feedback_out,
              SessionConfig config);

  /// Public demux entry: processes one raw ingress frame exactly as the
  /// path handler would (validation included — the frame is still
  /// untrusted input). This is what a sessiond Dispatcher routes into
  /// after peeking the flow id.
  void handle_frame(ConstBytes frame) { on_frame(frame); }

  AlfReceiver(const AlfReceiver&) = delete;
  AlfReceiver& operator=(const AlfReceiver&) = delete;

  /// Settles any manipulation jobs still in flight on the engine (their
  /// completions hold callbacks into this object) before teardown, and
  /// cancels every pending timer — destroying a receiver mid-session
  /// (a supervisor restart) must leave no event into freed memory.
  ~AlfReceiver();

  /// Optional execution-engine hookup (the §4/§5 control/manipulation
  /// split): frames keep being validated and reassembled on the control
  /// path — cheap — while each complete ADU's stage-2 pipeline is
  /// offloaded as an engine::ManipulationJob and harvested back on the
  /// control thread `harvest_delay` of simulated time later. ADUs then
  /// complete in ANY order (more so than inline), which ALF explicitly
  /// permits: delivery is by ADU name. Null reverts to inline execution
  /// (the default). Set before traffic arrives; the engine must outlive
  /// this receiver.
  void set_engine(engine::Engine* eng, SimDuration harvest_delay = 0) noexcept {
    eng_ = eng;
    engine_harvest_delay_ = harvest_delay;
  }

  /// Applies a whole attach set: engine, pool and plan, exactly as the
  /// three setters would. Set before traffic.
  void attach(const ReceiverAttach& a) {
    set_engine(a.engine, a.engine_harvest_delay);
    set_rx_pool(a.rx_pool);
    set_presentation(a.presentation);
  }

  /// Complete-ADU callback; invoked the moment each ADU completes, in
  /// arrival-completion order (NOT id order — that is the point). When no
  /// chain callback is set, this is the flatten bridge: the chain is
  /// copied out once into the delivered Adu.
  void set_on_adu(std::function<void(Adu&&)> fn) { on_adu_ = std::move(fn); }

  /// The pool fragments are COPIED into (DESIGN.md §12). Every ADU is
  /// reassembled as a scatter-gather chain of refcounted pool slices: a
  /// payload that arrives inside the ingress frame's pool segment — every
  /// Link publishes one — is linked by reference (no copy, no ledger
  /// charge), whichever pool that segment belongs to; anything else (a
  /// re-framed or mangled copy, a direct dispatch) is copied ONCE into a
  /// segment of this pool. Null (the default) selects buf::default_pool().
  /// Stage 2 then runs over the gather list and delivery hands up the
  /// chain itself (set_on_adu_chain) or flattens once as a bridge. Set
  /// before traffic; the pool must outlive the receiver and every chain it
  /// delivered.
  void set_rx_pool(buf::BufferPool* pool) noexcept { rx_pool_ = pool; }

  /// Fuses a compiled presentation plan (DESIGN.md §13) into stage 2: ADUs
  /// whose wire syntax matches the plan's are delivered already in HOST
  /// order — the plan's wire_stage() (LWTS identity, XDR byteswap32) runs
  /// inside the same decrypt+verify pass, inline or as an engine chain
  /// job, so no separate decode pass remains. The application finishes
  /// with presentation::plan_decode_host_order on the delivered payload.
  /// Contract: every ADU of the matching syntax on this session must carry
  /// a record of the plan's schema (sessions mixing record and plain-octet
  /// ADUs of one syntax must not attach a plan). Plans whose wire_stage()
  /// is kNone attach harmlessly (nothing fuses). Null detaches.
  void set_presentation(std::shared_ptr<const presentation::PresentationPlan> plan) {
    present_plan_ = std::move(plan);
  }

  /// Chain-delivery callback. When set, every ADU bypasses the flatten
  /// bridge and arrives as AduChain — at most one copy remains on the
  /// whole path (the link's copy "from the net" into the pool), and the
  /// final placement is the application's to perform from the gather
  /// list.
  void set_on_adu_chain(std::function<void(AduChain&&)> fn) {
    on_adu_chain_ = std::move(fn);
  }

  /// Loss report in application terms. `name_known` is false only when no
  /// fragment of the ADU ever arrived (then only the recovery id exists).
  void set_on_adu_lost(
      std::function<void(std::uint32_t adu_id, const AduName& name, bool name_known)> fn) {
    on_adu_lost_ = std::move(fn);
  }

  /// Fires once: every ADU up to the sender's DONE total has either been
  /// delivered or abandoned.
  void set_on_complete(std::function<void()> fn) { on_complete_ = std::move(fn); }

  /// Fires once if the stall watchdog abandons the session (no progress for
  /// SessionConfig::stall_timeout): the application degrades gracefully
  /// instead of hanging on a dead or hostile substrate.
  void set_on_session_failed(std::function<void()> fn) {
    on_session_failed_ = std::move(fn);
  }

  /// Overload-shedding rank (see PriorityFn); unset = all equal.
  void set_priority(PriorityFn fn) { priority_ = std::move(fn); }

  /// Snapshot of the closed ids (the prefix plus the book's closed
  /// entries) for a RESUME frame / a restarted incarnation. Valid even
  /// after fail_session(): closed entries deliberately survive failure so
  /// recovery can build on them.
  ResumeSummary resume_summary() const;

  /// Replays a predecessor's summary into this (fresh, pre-traffic)
  /// incarnation: delivered/abandoned ADUs stay closed, the DONE total is
  /// remembered, and completion fires immediately if nothing is left. No
  /// timers are armed — a restored receiver waits for new-epoch traffic
  /// (the NACK budget must not burn while the sender has not resumed).
  void restore(const ResumeSummary& s);

  bool complete() const noexcept { return complete_fired_; }
  bool failed() const noexcept { return failed_; }
  std::uint32_t adus_delivered() const noexcept { return delivered_count_; }
  const ReceiverStats& stats() const noexcept { return stats_; }

  /// §4 cost ledger for stage-2 manipulation (decrypt + verify). Under
  /// ProcessMode::kIntegrated this reports ~1 pass per ADU; kLayered
  /// reports one pass per manipulation — the fused-vs-layered claim,
  /// measured on live traffic.
  const obs::CostAccount& manipulation_cost() const noexcept { return manip_cost_; }
  /// Stage-1 cost ledger: fragment placement copies and FEC reconstruction
  /// passes (the "moving to/from the net" traffic, §3). Kept separate from
  /// the stage-2 manipulation ledger so the §4 fused-vs-layered ratios stay
  /// comparable across configurations; emitted as "reassembly".
  const obs::CostAccount& reassembly_cost() const noexcept { return reassembly_cost_; }
  /// Writes all counters (stats + cost) into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;
  /// Registers emit_metrics under `prefix` (e.g. "alf.rx"). The receiver
  /// must outlive the registry or be removed first.
  void register_metrics(obs::MetricsRegistry& reg, std::string prefix) const;
  /// Attaches the per-ADU flight recorder on a new "alf.rx" track:
  /// fragment-placed / complete / manipulation / engine-submit / harvest /
  /// deliver / abandon events (null = untraced).
  void set_flight(obs::FlightRecorder* flight);

 private:
  /// NACK pacing for one id: how many NACKs have named it, and when it may
  /// be named again (exponential backoff).
  struct NackState {
    int count = 0;
    SimTime next_at = 0;
  };

  struct Reassembly {
    AduName name;
    TransferSyntax syntax = TransferSyntax::kRaw;
    std::uint8_t flags = 0;
    ChecksumKind checksum_kind = ChecksumKind::kInternet;
    std::uint8_t fec_k = 0;
    std::uint32_t adu_len = 0;
    std::uint32_t checksum = 0;
    /// Disjoint pool slices keyed by ADU offset: the one record of what
    /// the ADU holds (its gaps are what is missing). Complete coverage in
    /// key order IS the ADU; destroying the map (shed, evict, checksum
    /// failure) releases every segment reference.
    std::map<std::uint32_t, buf::Slice> frags;
    std::map<std::uint32_t, ByteBuffer> parity;  ///< group start -> block
    /// Copy placement's segments, one per kCopyBlock of ADU offsets,
    /// made on first use (empty until a fragment is copied).
    std::vector<buf::BufRef> blocks;
    std::size_t bytes_received = 0;  ///< sum of the slices' lengths
    std::size_t frag_capacity = 0;  ///< inferred from the first fragment
    std::size_t pinned_bytes = 0;   ///< pool capacity the slices hold
    /// Counted against reassembly_bytes_limit: the larger of adu_len and
    /// pinned_bytes, plus parity.
    std::size_t charged_bytes = 0;
    /// This reassembly's NACK pacing: each reassembly counts afresh.
    NackState nack;
  };

  /// An id's fate above the closed prefix.
  enum class AduState : std::uint8_t {
    kMissing,    ///< no bytes held: never seen, evicted, or failed its checksum
    kPartial,    ///< reassembling: the entry's Reassembly holds its bytes
    kVerifying,  ///< complete; stage 2 runs inline or as an engine job
    kClosed,     ///< delivered or abandoned, above a hole in the prefix
  };

  /// Everything the receiver knows about one ADU id.
  struct Entry {
    AduState state = AduState::kMissing;
    /// Pacing while no bytes are held, for the id's whole life: an eviction
    /// folds the reassembly's pacing into it (max); a failed checksum
    /// resumes it.
    NackState unseen;
    /// kPartial: the reassembly. kVerifying: name and syntax only.
    Reassembly r;
  };
  using Book = std::map<std::uint32_t, Entry>;

  void on_frame(ConstBytes frame);
  void on_data(const DataFragment& f);
  void on_done(const DoneMessage& d);
  /// FEC: reconstructs any group that is one fragment short of complete.
  /// Returns true if the ADU is complete (the caller completes it).
  bool try_fec_reconstruct(std::uint32_t adu_id, Reassembly& r);
  /// True when the slices cover [start,end) without a gap.
  bool range_present(const Reassembly& r, std::uint32_t start,
                     std::uint32_t end) const;
  /// Stage 2 for a complete ADU: builds the plan and the chain, returns the
  /// reassembly charge, marks the entry kVerifying, then runs the pass
  /// inline or submits it as an engine job. Both routes end in settle().
  void complete_adu(std::uint32_t adu_id, Entry& e);
  /// Builds the stage-2 pipeline description for one complete ADU; the one
  /// recipe both the inline path and engine workers execute, so the §4
  /// charges are identical by construction.
  ManipulationPlan make_plan(std::uint32_t adu_id, const Reassembly& r) const;
  /// The pool fragments are copied into: rx_pool_, else the default pool.
  buf::BufferPool& pool() const noexcept {
    return rx_pool_ != nullptr ? *rx_pool_ : buf::default_pool();
  }
  /// Places `payload` at ADU offsets [start,end): every gap between the
  /// slices already placed becomes a new slice, and its length is added
  /// to bytes_received. `src` non-null = by reference: `payload` lies
  /// inside that slice's segment (the published ingress frame, or an FEC
  /// recovered slice), whose capacity is pinned once. Null = one copy
  /// into the ADU's copy blocks. Returns where placement stopped: `end`,
  /// or earlier when pinning more pool memory would break
  /// reassembly_bytes_limit.
  std::uint32_t place(std::uint32_t adu_id, Reassembly& r, ConstBytes payload,
                      std::uint32_t start, std::uint32_t end,
                      const buf::Slice* src);
  /// Charges `capacity` more pinned pool bytes to an ADU: only the part
  /// that lifts its charge above max(adu_len, pinned_bytes) is reserved.
  /// False = no room (nothing is charged).
  bool pin(std::uint32_t adu_id, Reassembly& r, std::size_t capacity);
  /// Reads [start,start+len) of an ADU. `out` aliases a slice when the
  /// range is contiguous in one, else the bytes are gathered into
  /// `scratch`. False if any byte is missing.
  bool read_range(const Reassembly& r, std::uint32_t start, std::size_t len,
                  MutableBytes scratch, ConstBytes& out) const;
  /// Links an ADU's slices (complete, disjoint, in offset order) into one
  /// chain and clears the slice map.
  buf::BufChain build_chain(Reassembly& r);
  /// The end of stage 2 for a kVerifying entry, inline or harvested from
  /// the engine (inside engine_pump's drain, at a deterministic simulated
  /// time): delivers an intact chain, else counts the checksum failure and
  /// sends the id back to kMissing. Other entries are ignored.
  void settle(std::uint32_t adu_id, bool intact, buf::BufChain&& chain);
  /// Closes the id and hands up the chain (or flattens once when only a
  /// flat consumer is registered). `name` is a copy: closing the id may
  /// erase the entry it came from.
  void deliver(std::uint32_t adu_id, AduName name, TransferSyntax syntax,
               buf::BufChain&& chain);
  /// Flight note for a pool release the receiver itself decided on
  /// (flatten bridge, checksum-fail discard, shed/evict of an ADU).
  void note_recycle(std::uint32_t adu_id, std::size_t bytes);
  /// Releases a reassembly — notes the recycle of any slices it still
  /// holds and returns its charge — and leaves `r` empty.
  void drop(std::uint32_t adu_id, Reassembly& r);
  void arm_engine_pump();
  void engine_pump();
  /// Closes an open id as lost and reports it by name when the book knows
  /// one. `shed` = dropped by the overload policy (counted in adus_shed,
  /// traced as kShed) rather than abandoned by recovery.
  void abandon(std::uint32_t adu_id, bool shed = false);
  /// Overload policy (DESIGN.md §10.3): while reassembly memory sits above
  /// shed_highwater, drop lowest-priority partial ADUs (never
  /// `protect_id`) down to the low-water mark. Shed ADUs are closed and
  /// reported via on_adu_lost — the application copes in its own terms.
  void shed_for_overload(std::uint32_t protect_id);
  Book::iterator pick_shed_victim(std::uint32_t protect_id);
  void nack_scan();
  void send_progress();
  void check_complete();

  /// Charges `need` bytes against reassembly_bytes_limit, evicting the
  /// oldest partial ADUs (never `for_id`) to make room. False = no room.
  bool reserve_bytes(std::uint32_t for_id, std::size_t need);
  /// Drops a partial ADU's bytes; the id goes back to kMissing and stays
  /// recoverable via NACK.
  void evict(std::uint32_t adu_id, Entry& e);
  /// Records substantive forward progress (feeds the stall watchdog).
  void note_progress() { last_progress_mark_ = loop_.now(); }
  void watchdog_tick();
  /// Stall watchdog verdict: abandon everything, tell the application once.
  void fail_session();

  /// Marks an id's entry kClosed and folds the closed run at the front of
  /// the book into the prefix.
  void close_id(std::uint32_t adu_id);

  /// Arms whichever maintenance timers the current state warrants.
  void arm_timers();
  /// ADUs closed so far (delivered + abandoned).
  std::uint32_t closed_count() const noexcept {
    return delivered_count_ + abandoned_count_;
  }
  /// True while some known ADU is still outstanding.
  bool recovery_work_remains() const noexcept {
    const std::uint32_t horizon =
        expected_total_ > 0 ? expected_total_ : highest_seen_;
    return closed_count() < horizon;
  }
  /// True while the session has started but not completed or failed (an
  /// accepted fragment raised highest_seen_: id 0 never enters the book).
  bool session_active() const noexcept {
    return !complete_fired_ && !failed_ && highest_seen_ > 0;
  }

  EventLoop& loop_;
  NetPath& feedback_out_;
  NetPath* data_in_ = nullptr;  ///< path whose handler this receiver owns
  SessionConfig cfg_;
  ReceiverStats stats_;
  obs::CostAccount manip_cost_;
  obs::CostAccount reassembly_cost_;  ///< stage-1 placement + FEC traffic
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;
  /// This ADU's flow-scoped trace id (shared with the sender's side).
  std::uint64_t flight_id(std::uint32_t adu_id) const noexcept;

  /// One book per ADU id: every id above closed_prefix_ the receiver knows
  /// anything about — NACKed, reassembling, verifying, or closed above a
  /// hole. adu_id_window bounds it, like the NACK scan.
  Book book_;
  std::uint32_t closed_prefix_ = 0;       ///< ids 1..prefix are all closed
  std::uint32_t delivered_count_ = 0;
  std::uint32_t abandoned_count_ = 0;
  std::uint32_t highest_seen_ = 0;
  std::uint32_t expected_total_ = 0;  ///< 0 until DONE arrives
  /// kVerifying entries. They outlive fail_session(): each engine job holds
  /// a completion into this object, which the destructor settles.
  std::uint32_t verifying_ = 0;
  bool complete_fired_ = false;
  bool failed_ = false;  ///< stall watchdog gave up; session is inert
  std::size_t reassembly_bytes_ = 0;  ///< bytes charged across kPartial entries

  engine::Engine* eng_ = nullptr;
  buf::BufferPool* rx_pool_ = nullptr;  ///< copy-placement pool (null = default)
  /// Compiled presentation plan to fuse into stage 2 (null = none).
  std::shared_ptr<const presentation::PresentationPlan> present_plan_;
  SimDuration engine_harvest_delay_ = 0;
  bool engine_pump_armed_ = false;

  // Maintenance timers are armed only while the session has open work, so
  // an idle or never-used association does not keep the event loop (or a
  // host's timer wheel) busy forever. Activity re-arms them. Every armed
  // timer's EventId is retained so destruction and terminal failure can
  // cancel it (no callback may outlive the receiver).
  bool nack_timer_armed_ = false;
  bool progress_timer_armed_ = false;
  bool watchdog_armed_ = false;
  EventId nack_timer_ = 0;
  EventId progress_timer_ = 0;
  EventId engine_pump_timer_ = 0;
  EventId watchdog_timer_ = 0;  ///< cancelled on completion so a finished
                                ///< session leaves no event pending
  SimTime last_progress_mark_ = 0;  ///< last substantive forward progress
  /// Cancels every pending maintenance timer (teardown / terminal failure).
  void cancel_timers();

  Rng jitter_rng_;       ///< seeded NACK-backoff jitter stream
  PriorityFn priority_;  ///< overload-shedding rank; unset = all equal

  // Consumption-rate measurement for PROGRESS.
  std::uint64_t bytes_at_last_progress_ = 0;
  SimTime last_progress_at_ = 0;

  std::function<void(Adu&&)> on_adu_;
  std::function<void(AduChain&&)> on_adu_chain_;
  std::function<void(std::uint32_t, const AduName&, bool)> on_adu_lost_;
  std::function<void()> on_complete_;
  std::function<void()> on_session_failed_;
};

}  // namespace ngp::alf
