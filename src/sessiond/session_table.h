// session_table.h — the sharded flow/session table at the heart of
// ngp::sessiond (DESIGN.md §11).
//
// The paper's ALF thesis makes this table cheap by construction: every
// frame names its session, so demux to per-flow state is a hash lookup,
// not a parse. The shape follows NPF's connection database and FlexTOE's
// per-flow parallelism: flows hash onto independent shards (per-shard
// mutex, open-addressed buckets), each shard keeps its own LRU order for
// idle GC, and admission control bounds what a connect storm can commit
// the host to — a global session cap plus per-shard high-water shedding
// that reuses the priority-hook idea from the overload work (PR 6).
//
// Threading: every shard is independently locked, so dispatch from many
// threads proceeds in parallel across shards and serializes per shard —
// which also means one flow's frames are processed in order without any
// extra machinery. Within the deterministic single-threaded sim the locks
// are uncontended and cost one uncontended CAS each.
//
// Re-entrancy: eviction callbacks and Session destructors never run under
// a shard mutex — removals are parked and settled after the lock drops.
// Code already running under a shard lock (Session::on_frame, the
// with_session functor, a SessionFactory) may re-enter the table for that
// same shard; the table detects the held lock and runs the nested call
// directly, so a session erasing itself from its own completion callback
// is a supported, deadlock-free pattern.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace ngp::obs {
class MetricSink;
}  // namespace ngp::obs

namespace ngp::sessiond {

/// Identifies one flow: the peer the frames arrive from plus the session
/// id the frames themselves carry (alf::peek_flow_id). The peer address is
/// assigned by whoever binds ingress paths (Dispatcher) or opens sessions
/// (Sessiond) — the wire only names the session.
struct FlowId {
  std::uint32_t peer = 0;
  std::uint16_t session_id = 0;

  std::uint64_t key() const noexcept {
    return (std::uint64_t{peer} << 16) | session_id;
  }
  friend bool operator==(const FlowId& a, const FlowId& b) noexcept {
    return a.key() == b.key();
  }
};

/// What the table stores: anything that can consume a raw ingress frame.
/// AlfSession (sessiond.h) adapts ALF endpoints to this; tests use toy
/// implementations so table semantics are checkable in isolation.
class Session {
 public:
  virtual ~Session() = default;
  /// One raw frame off the wire, untrusted. Called with the owning shard's
  /// lock held. Re-entering the table for the SAME shard from here —
  /// erasing this or a sibling flow, inserting, routing — is safe: the
  /// table detects the held lock and runs the operation immediately,
  /// deferring any session destruction until the lock is released.
  /// Operations on OTHER shards take that shard's lock normally (always
  /// fine single-threaded; multi-threaded dispatch must not erase across
  /// shards from callbacks, or it risks lock-order inversion).
  virtual void on_frame(ConstBytes frame) = 0;
};

using SessionPtr = std::unique_ptr<Session>;

/// Builds the session for a flow's first frame (create-on-first-frame).
/// Returning null refuses the flow (counted unroutable, frame dropped).
using SessionFactory =
    std::function<SessionPtr(const FlowId& flow, ConstBytes first_frame)>;

/// Ranks a flow for shedding: lower = shed first (same convention as
/// alf::PriorityFn). Unset = all flows equal (LRU order decides).
using SessionPriorityFn = std::function<int(const FlowId& flow)>;

enum class EvictReason : std::uint8_t {
  kIdle = 0,  ///< idle sweep: no frame for idle_timeout of sim time
  kShed = 1,  ///< per-shard high-water admission shedding
};

struct SessionTableConfig {
  /// Shard count, rounded up to a power of two. Sized for the worst
  /// expected writer parallelism, not the session count — occupancy per
  /// shard is what the buckets absorb.
  std::size_t shards = 64;
  /// Global admission cap: inserts beyond this are rejected (the caller
  /// drops the frame; the flow retries into a later, emptier table). 0 =
  /// unlimited.
  std::size_t max_sessions = 0;
  /// Per-shard high-water mark: an insert into a shard at or above this
  /// occupancy first sheds that shard's lowest-priority, least-recently
  /// active unpinned session — or is rejected outright when every resident
  /// is pinned. 0 = never shed.
  std::size_t shard_highwater = 0;
  /// Idle GC horizon: sweep_idle(now) evicts unpinned sessions whose last
  /// frame is at least this much sim time old. 0 disables idle eviction.
  SimDuration idle_timeout = 0;
  /// Initial bucket-array capacity per shard (rounded to a power of two).
  std::size_t initial_shard_capacity = 16;
};

/// Aggregate counters (sum over shards; see also per-shard metrics).
struct SessionTableStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t evictions_idle = 0;
  std::uint64_t evictions_shed = 0;
  std::uint64_t admission_rejects = 0;  ///< global max_sessions rejections
  std::size_t occupancy = 0;
  std::size_t occupancy_peak = 0;
};

/// Sharded, open-addressed flow table with per-shard LRU and admission
/// control. Pointers returned by insert() stay valid until the entry is
/// erased or evicted (entries are heap nodes; the bucket arrays hold
/// pointers and can grow without moving sessions).
class SessionTable {
 public:
  explicit SessionTable(SessionTableConfig cfg = {});
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;
  ~SessionTable();

  /// Admits a flow. Fails with kLimitExceeded when the global cap is hit
  /// (after per-shard shedding, if configured, failed to make room) and
  /// kDuplicate when the flow already resides. `pinned` entries (open()
  /// handles) are never idle-swept or shed — only erase() removes them.
  Result<Session*> insert(const FlowId& flow, SessionPtr session, SimTime now,
                          bool pinned = false);

  /// Looks the flow up and, under the owning shard's lock, runs `fn` on
  /// its session; touches the LRU clock. False = not resident. This is
  /// the dispatch primitive: per-flow serialization comes from the shard
  /// lock. `fn` may re-enter the table (see Session::on_frame for the
  /// same-shard guarantee and the cross-shard caveat).
  bool with_session(const FlowId& flow, SimTime now,
                    const std::function<void(Session&)>& fn);

  /// Dispatch-or-create in one locked step: routes `frame` to the flow's
  /// session, creating it via `factory` on a miss (create-on-first-frame,
  /// admission control applied). Outcome tells the caller what happened.
  enum class RouteOutcome : std::uint8_t {
    kRouted = 0,    ///< existing session consumed the frame
    kCreated = 1,   ///< factory built a session; it consumed the frame
    kNoSession = 2, ///< miss and no factory / factory refused
    kRejected = 3,  ///< miss and admission control refused
  };
  RouteOutcome route(const FlowId& flow, SimTime now, ConstBytes frame,
                     const SessionFactory* factory, bool pinned = false);

  /// Removes a flow (pinned or not). True if it was resident.
  bool erase(const FlowId& flow);
  /// Re-pins or unpins a resident flow. False = not resident.
  bool pin(const FlowId& flow, bool pinned);
  bool contains(const FlowId& flow) const;

  /// Evicts every unpinned session idle since `now - idle_timeout`.
  /// Driven by the sim clock; the caller decides the cadence. Returns the
  /// number evicted. No-op when idle_timeout == 0.
  std::size_t sweep_idle(SimTime now);

  std::size_t size() const noexcept;
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Per-shard occupancy (test hook for distribution uniformity).
  std::vector<std::size_t> shard_sizes() const;

  /// Shed/evict rank; unset = all flows equal. Set before traffic.
  void set_priority(SessionPriorityFn fn) { priority_ = std::move(fn); }
  /// Observes every idle/shed eviction, after removal from the table but
  /// before the session is destroyed (the flight hook and the facade's
  /// bookkeeping hang off this). Runs with the shard lock RELEASED — the
  /// entry is already unlinked, so the callback may freely re-enter the
  /// table (erase a related flow, insert a replacement, read stats).
  void set_on_evict(
      std::function<void(const FlowId&, Session&, EvictReason)> fn) {
    on_evict_ = std::move(fn);
  }

  SessionTableStats stats() const;

  /// Aggregate counters plus per-shard occupancy/lookup/eviction metrics
  /// nested as "shard<i>.<name>" (PrefixedSink).
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  struct Entry {
    FlowId flow;
    std::uint64_t hash = 0;
    SessionPtr session;
    SimTime last_active = 0;
    bool pinned = false;
    Entry* lru_prev = nullptr;  ///< toward most recent
    Entry* lru_next = nullptr;  ///< toward least recent
  };

  struct ShardCounters {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
    std::uint64_t evictions_idle = 0;
    std::uint64_t evictions_shed = 0;
    std::size_t occupancy_peak = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<Entry*> slots;  ///< open-addressed, linear probe; null = free
    std::size_t count = 0;
    Entry* lru_head = nullptr;  ///< most recently active
    Entry* lru_tail = nullptr;  ///< least recently active
    ShardCounters c;
  };

  /// An entry removed from the table whose on_evict_ callback and
  /// destruction are deferred until the owning shard's lock is released
  /// (so neither user callbacks nor Session destructors ever run under a
  /// shard mutex).
  struct PendingEvict {
    Entry* entry = nullptr;
    EvictReason reason = EvictReason::kIdle;
    bool notify = false;  ///< evictions fire on_evict_; erase() does not
  };

  /// Which (table, shard) the current thread holds locked, and where its
  /// deferred teardown work accumulates. This is what makes same-shard
  /// re-entry from callbacks safe: a nested call sees its shard already
  /// held and runs lock-free against it, parking removals in the outer
  /// scope's graveyard.
  struct ReentryCtx {
    const SessionTable* table = nullptr;
    const Shard* shard = nullptr;
    std::vector<PendingEvict>* graveyard = nullptr;
  };
  class ShardScope;
  static thread_local ReentryCtx tls_ctx_;

  bool held_by_this_thread(const Shard& s) const noexcept {
    return tls_ctx_.table == this && tls_ctx_.shard == &s;
  }
  /// Locks s.mu unless this thread already holds it (re-entrant read path).
  std::unique_lock<std::mutex> maybe_lock(const Shard& s) const;
  /// Runs deferred callbacks and destroys parked entries. Caller must NOT
  /// hold any shard lock.
  void flush(std::vector<PendingEvict>& graveyard);

  Shard& shard_for(std::uint64_t hash) const noexcept;
  // All helpers below run with the shard's lock held.
  Entry* find_locked(Shard& s, std::uint64_t hash, const FlowId& flow) const;
  void insert_slot_locked(Shard& s, Entry* e);
  void remove_slot_locked(Shard& s, const Entry* e);
  void grow_locked(Shard& s);
  void lru_touch_locked(Shard& s, Entry* e);
  void lru_unlink_locked(Shard& s, Entry* e);
  void evict_locked(Shard& s, Entry* e, EvictReason reason,
                    std::vector<PendingEvict>& graveyard);
  /// Lowest-priority, least-recently-active unpinned entry; null if all
  /// pinned.
  Entry* pick_shed_victim_locked(Shard& s);
  Result<Session*> insert_locked(Shard& s, const FlowId& flow,
                                 std::uint64_t hash, SessionPtr session,
                                 SimTime now, bool pinned,
                                 std::vector<PendingEvict>& graveyard);

  SessionTableConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> size_peak_{0};
  std::atomic<std::uint64_t> admission_rejects_{0};
  SessionPriorityFn priority_;
  std::function<void(const FlowId&, Session&, EvictReason)> on_evict_;
};

/// The hash that spreads flows over shards and buckets (splitmix64 mix of
/// FlowId::key). Exposed for the distribution-uniformity test.
std::uint64_t flow_hash(const FlowId& flow) noexcept;

}  // namespace ngp::sessiond
