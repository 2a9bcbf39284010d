// session_table.h — the sharded flow/session table at the heart of
// ngp::sessiond (DESIGN.md §11).
//
// The paper's ALF thesis makes this table cheap by construction: every
// frame names its session, so demux to per-flow state is a hash lookup,
// not a parse. The shape follows NPF's connection database: flows hash
// onto independent shards (open-addressed buckets), each shard keeps its
// own LRU order for idle GC, and admission control bounds what a connect
// storm can commit the host to — a global session cap plus per-shard
// high-water shedding ranked by the priority hook of the overload shedding
// (DESIGN.md §10.3). Shards bound the work one shed scan or one rehash
// touches.
//
// Threading: none. The table belongs to the control thread, like the
// EventLoop its sessions schedule on.
//
// Re-entrancy: a callback the table runs (Session::on_frame, a
// SessionFactory, on_evict) may call back into it. Eviction callbacks and
// Session destructors never run while a shard is being walked: removals
// are parked on the shard and settled when its outermost call returns, so
// a session erasing itself from its own completion callback is a
// supported pattern.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
  /// One raw frame off the wire, untrusted. May re-enter the table —
  /// erase this or any other flow, insert, route. A removal from this
  /// frame's shard takes effect at once, but the session is destroyed
  /// only when the route() that called this returns; a removal from
  /// another shard destroys its session before erase() returns.
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
  /// Shard count, rounded up to a power of two. Bounds the share of the
  /// table one high-water shed scan or one bucket rehash touches.
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

  /// The dispatch call: routes `frame` to the flow's session and touches
  /// its LRU clock, creating the session via `factory` on a miss
  /// (create-on-first-frame, admission control applied). Outcome tells
  /// the caller what happened.
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

  std::size_t size() const noexcept { return size_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Per-shard occupancy (test hook for distribution uniformity).
  std::vector<std::size_t> shard_sizes() const;

  /// Shed/evict rank; unset = all flows equal. Set before traffic.
  void set_priority(SessionPriorityFn fn) { priority_ = std::move(fn); }
  /// Observes every idle/shed eviction, after removal from the table but
  /// before the session is destroyed (the flight hook and the facade's
  /// bookkeeping hang off this). Runs once the shard's outermost call has
  /// returned — the entry is already unlinked, so the callback may freely
  /// re-enter the table (erase a related flow, insert a replacement, read
  /// stats).
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

  /// An entry removed from the table whose on_evict_ callback and
  /// destruction wait until its shard's outermost call returns.
  struct PendingEvict {
    Entry* entry = nullptr;
    EvictReason reason = EvictReason::kIdle;
    bool notify = false;  ///< evictions fire on_evict_; erase() does not
  };

  struct Shard {
    std::vector<Entry*> slots;  ///< open-addressed, linear probe; null = free
    std::size_t count = 0;
    Entry* lru_head = nullptr;  ///< most recently active
    Entry* lru_tail = nullptr;  ///< least recently active
    ShardCounters c;
    /// Calls on this shard now on the stack: a callback that re-enters the
    /// table nests one call inside another.
    std::size_t depth = 0;
    std::vector<PendingEvict> graveyard;  ///< removals awaiting depth 0
  };

  /// Marks one call on a shard; leaving the outermost one settles the
  /// shard's graveyard.
  class ShardScope;
  /// Runs the parked on_evict_ callbacks and destroys the parked entries.
  void settle(Shard& s);

  Shard& shard_for(std::uint64_t hash) noexcept {
    return shards_[hash & shard_mask_];
  }
  static Entry* find(const Shard& s, std::uint64_t hash, const FlowId& flow);
  static void insert_slot(Shard& s, Entry* e);
  static void remove_slot(Shard& s, const Entry* e);
  static void grow(Shard& s);
  static void lru_touch(Shard& s, Entry* e);
  static void lru_unlink(Shard& s, Entry* e);
  /// Takes `e` out of the table and parks it in the shard's graveyard.
  void unlink(Shard& s, Entry* e, EvictReason reason, bool notify);
  /// Lowest-priority, least-recently-active unpinned entry; null if all
  /// pinned.
  Entry* pick_shed_victim(const Shard& s) const;
  Result<Session*> admit(Shard& s, const FlowId& flow, std::uint64_t hash,
                         SessionPtr session, SimTime now, bool pinned);

  SessionTableConfig cfg_;
  std::vector<Shard> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t size_ = 0;
  std::size_t size_peak_ = 0;
  std::uint64_t admission_rejects_ = 0;
  SessionPriorityFn priority_;
  std::function<void(const FlowId&, Session&, EvictReason)> on_evict_;
};

/// The hash that spreads flows over shards and buckets (splitmix64 mix of
/// FlowId::key). Exposed for the distribution-uniformity test.
std::uint64_t flow_hash(const FlowId& flow) noexcept;

}  // namespace ngp::sessiond
