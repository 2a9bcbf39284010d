#include "sessiond/session_table.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ngp::sessiond {

namespace {

constexpr std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Bucket arrays grow at 3/4 occupancy — linear probing stays short.
constexpr bool needs_growth(std::size_t count, std::size_t slots) noexcept {
  return (count + 1) * 4 > slots * 3;
}

}  // namespace

thread_local SessionTable::ReentryCtx SessionTable::tls_ctx_;

/// RAII lock-or-reenter scope for one shard. The first scope a thread
/// opens on a shard takes the mutex, advertises itself in tls_ctx_, and —
/// after unlocking — flushes the graveyard of entries removed while it was
/// held. A nested scope on the same shard (a callback re-entering the
/// table) locks nothing and parks its removals in the outer scope's
/// graveyard, so entries stay alive until the code that might still hold
/// raw pointers to them has unwound.
class SessionTable::ShardScope {
 public:
  ShardScope(SessionTable& table, Shard& s)
      : table_(table),
        reentrant_(table.held_by_this_thread(s)),
        lock_(s.mu, std::defer_lock) {
    if (!reentrant_) {
      lock_.lock();
      saved_ = tls_ctx_;
      tls_ctx_ = {&table, &s, &graveyard_};
    }
  }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
  ~ShardScope() {
    if (reentrant_) return;
    tls_ctx_ = saved_;
    lock_.unlock();
    table_.flush(graveyard_);
  }

  /// Where removals performed in this scope defer their teardown: the
  /// outermost scope's graveyard, whichever nesting level we are.
  std::vector<PendingEvict>& graveyard() noexcept {
    return reentrant_ ? *tls_ctx_.graveyard : graveyard_;
  }

 private:
  SessionTable& table_;
  bool reentrant_;
  std::unique_lock<std::mutex> lock_;
  ReentryCtx saved_;
  std::vector<PendingEvict> graveyard_;
};

std::unique_lock<std::mutex> SessionTable::maybe_lock(const Shard& s) const {
  if (held_by_this_thread(s)) return {};
  return std::unique_lock<std::mutex>(s.mu);
}

void SessionTable::flush(std::vector<PendingEvict>& graveyard) {
  // Callbacks here may re-enter the table; each removal they cause opens
  // its own scope and flushes on exit, so recursion bottoms out.
  for (PendingEvict& p : graveyard) {
    if (p.notify && on_evict_) on_evict_(p.entry->flow, *p.entry->session, p.reason);
    delete p.entry;
  }
  graveyard.clear();
}

std::uint64_t flow_hash(const FlowId& flow) noexcept {
  // splitmix64 finalizer: full-avalanche, so both the shard index (low
  // bits) and the probe start (high bits) see well-mixed key material even
  // though flow keys are tiny sequential integers.
  std::uint64_t x = flow.key() + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

SessionTable::SessionTable(SessionTableConfig cfg) : cfg_(cfg) {
  const std::size_t n = round_up_pow2(std::max<std::size_t>(1, cfg_.shards));
  shard_mask_ = n - 1;
  shards_.reserve(n);
  const std::size_t cap =
      round_up_pow2(std::max<std::size_t>(4, cfg_.initial_shard_capacity));
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->slots.assign(cap, nullptr);
    shards_.push_back(std::move(s));
  }
}

SessionTable::~SessionTable() {
  for (auto& s : shards_) {
    for (Entry* e : s->slots) delete e;
  }
}

SessionTable::Shard& SessionTable::shard_for(std::uint64_t hash) const noexcept {
  return *shards_[hash & shard_mask_];
}

std::size_t SessionTable::shard_of(const FlowId& flow) const noexcept {
  return flow_hash(flow) & shard_mask_;
}

SessionTable::Entry* SessionTable::find_locked(Shard& s, std::uint64_t hash,
                                               const FlowId& flow) const {
  const std::size_t mask = s.slots.size() - 1;
  // Probe start uses the hash's high bits: the low bits already picked the
  // shard, so reusing them would funnel every resident flow into the same
  // probe sequence.
  std::size_t i = (hash >> 32) & mask;
  while (Entry* e = s.slots[i]) {
    if (e->hash == hash && e->flow == flow) return e;
    i = (i + 1) & mask;
  }
  return nullptr;
}

void SessionTable::insert_slot_locked(Shard& s, Entry* e) {
  const std::size_t mask = s.slots.size() - 1;
  std::size_t i = (e->hash >> 32) & mask;
  while (s.slots[i] != nullptr) i = (i + 1) & mask;
  s.slots[i] = e;
}

void SessionTable::remove_slot_locked(Shard& s, const Entry* e) {
  const std::size_t mask = s.slots.size() - 1;
  std::size_t i = (e->hash >> 32) & mask;
  while (s.slots[i] != e) i = (i + 1) & mask;
  // Backward-shift deletion (no tombstones): slide the cluster's displaced
  // entries back over the hole so probe chains stay break-free.
  s.slots[i] = nullptr;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    Entry* n = s.slots[j];
    if (n == nullptr) return;
    const std::size_t home = (n->hash >> 32) & mask;
    // n may move into the hole only if its home position does not sit
    // strictly inside (i, j] — otherwise the move would break its chain.
    const bool movable = ((j - home) & mask) >= ((j - i) & mask);
    if (movable) {
      s.slots[i] = n;
      s.slots[j] = nullptr;
      i = j;
    }
  }
}

void SessionTable::grow_locked(Shard& s) {
  std::vector<Entry*> old = std::move(s.slots);
  s.slots.assign(old.size() * 2, nullptr);
  for (Entry* e : old) {
    if (e != nullptr) insert_slot_locked(s, e);
  }
}

void SessionTable::lru_unlink_locked(Shard& s, Entry* e) {
  if (e->lru_prev != nullptr) e->lru_prev->lru_next = e->lru_next;
  else s.lru_head = e->lru_next;
  if (e->lru_next != nullptr) e->lru_next->lru_prev = e->lru_prev;
  else s.lru_tail = e->lru_prev;
  e->lru_prev = e->lru_next = nullptr;
}

void SessionTable::lru_touch_locked(Shard& s, Entry* e) {
  if (s.lru_head == e) return;
  // A null prev on a non-head entry means e is not in the list yet (a
  // fresh insert) — unlinking it would clobber head/tail.
  if (e->lru_prev != nullptr) lru_unlink_locked(s, e);
  e->lru_next = s.lru_head;
  if (s.lru_head != nullptr) s.lru_head->lru_prev = e;
  s.lru_head = e;
  if (s.lru_tail == nullptr) s.lru_tail = e;
}

void SessionTable::evict_locked(Shard& s, Entry* e, EvictReason reason,
                                std::vector<PendingEvict>& graveyard) {
  remove_slot_locked(s, e);
  lru_unlink_locked(s, e);
  --s.count;
  size_.fetch_sub(1, std::memory_order_relaxed);
  if (reason == EvictReason::kIdle) ++s.c.evictions_idle;
  else ++s.c.evictions_shed;
  // on_evict_ and the session's destructor run at flush time, after the
  // shard lock drops — callbacks that re-enter the table are safe, and
  // raw pointers upstack (a route() mid-delivery) stay valid.
  graveyard.push_back({e, reason, /*notify=*/true});
}

SessionTable::Entry* SessionTable::pick_shed_victim_locked(Shard& s) {
  // Scan the LRU from its cold end: among unpinned entries the lowest
  // priority wins, ties resolved by least recent activity (first seen in
  // this direction). The scan is linear in shard occupancy, which is the
  // point of sharding: a high-water event touches one shard's worth.
  Entry* victim = nullptr;
  int victim_pri = 0;
  for (Entry* e = s.lru_tail; e != nullptr; e = e->lru_prev) {
    if (e->pinned) continue;
    const int pri = priority_ ? priority_(e->flow) : 0;
    if (victim == nullptr || pri < victim_pri) {
      victim = e;
      victim_pri = pri;
    }
  }
  return victim;
}

Result<Session*> SessionTable::insert_locked(Shard& s, const FlowId& flow,
                                             std::uint64_t hash,
                                             SessionPtr session, SimTime now,
                                             bool pinned,
                                             std::vector<PendingEvict>& graveyard) {
  if (find_locked(s, hash, flow) != nullptr) {
    return {ErrorCode::kDuplicate, "flow already resident"};
  }
  // Per-shard high water: admitting into a full shard sheds a resident, so
  // a storm concentrating on one shard degrades that shard by policy
  // instead of growing it without bound. The victim is only CHOSEN here —
  // nothing is evicted until every admission check has passed, so a
  // rejected insert never costs a resident session.
  Entry* victim = nullptr;
  if (cfg_.shard_highwater > 0 && s.count >= cfg_.shard_highwater) {
    victim = pick_shed_victim_locked(s);
    if (victim == nullptr) {
      // Every resident is pinned: nothing to shed, so the shard cannot
      // make room — refuse rather than grow past the water line.
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return {ErrorCode::kLimitExceeded, "shard at high water, all pinned"};
    }
  }
  // Global cap, counting the room the pending shed would make (so at the
  // cap a high-water insert still admits by replacement). The relaxed
  // read can transiently over-admit by one per concurrent shard —
  // admission is a resource bound, not an invariant, and an exact global
  // count would serialize every shard on one lock.
  if (cfg_.max_sessions > 0) {
    const std::size_t resident = size_.load(std::memory_order_relaxed);
    if (resident - (victim != nullptr ? 1 : 0) >= cfg_.max_sessions) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return {ErrorCode::kLimitExceeded, "session table full"};
    }
  }
  if (victim != nullptr) evict_locked(s, victim, EvictReason::kShed, graveyard);
  if (needs_growth(s.count, s.slots.size())) grow_locked(s);

  auto* e = new Entry{};
  e->flow = flow;
  e->hash = hash;
  e->session = std::move(session);
  e->last_active = now;
  e->pinned = pinned;
  insert_slot_locked(s, e);
  lru_touch_locked(s, e);
  ++s.count;
  ++s.c.inserts;
  s.c.occupancy_peak = std::max(s.c.occupancy_peak, s.count);
  const std::size_t sz = size_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t peak = size_peak_.load(std::memory_order_relaxed);
  while (sz > peak &&
         !size_peak_.compare_exchange_weak(peak, sz, std::memory_order_relaxed)) {
  }
  return e->session.get();
}

Result<Session*> SessionTable::insert(const FlowId& flow, SessionPtr session,
                                      SimTime now, bool pinned) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  ShardScope scope(*this, s);
  return insert_locked(s, flow, h, std::move(session), now, pinned,
                       scope.graveyard());
}

bool SessionTable::with_session(const FlowId& flow, SimTime now,
                                const std::function<void(Session&)>& fn) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  ShardScope scope(*this, s);
  ++s.c.lookups;
  Entry* e = find_locked(s, h, flow);
  if (e == nullptr) {
    ++s.c.misses;
    return false;
  }
  ++s.c.hits;
  e->last_active = now;
  lru_touch_locked(s, e);
  // fn may erase this very flow: the entry is then unlinked but parked in
  // the scope's graveyard, so *e->session outlives the call.
  fn(*e->session);
  return true;
}

SessionTable::RouteOutcome SessionTable::route(const FlowId& flow, SimTime now,
                                               ConstBytes frame,
                                               const SessionFactory* factory,
                                               bool pinned) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  ShardScope scope(*this, s);
  ++s.c.lookups;
  if (Entry* e = find_locked(s, h, flow)) {
    ++s.c.hits;
    e->last_active = now;
    lru_touch_locked(s, e);
    e->session->on_frame(frame);
    return RouteOutcome::kRouted;
  }
  ++s.c.misses;
  if (factory == nullptr || !*factory) return RouteOutcome::kNoSession;
  SessionPtr fresh = (*factory)(flow, frame);
  if (fresh == nullptr) return RouteOutcome::kNoSession;
  auto r = insert_locked(s, flow, h, std::move(fresh), now, pinned,
                         scope.graveyard());
  if (!r.ok()) return RouteOutcome::kRejected;
  // First frame delivered under the same lock that admitted the flow: a
  // concurrent second frame for it serializes behind us, in order.
  (*r)->on_frame(frame);
  return RouteOutcome::kCreated;
}

bool SessionTable::erase(const FlowId& flow) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  ShardScope scope(*this, s);
  Entry* e = find_locked(s, h, flow);
  if (e == nullptr) return false;
  remove_slot_locked(s, e);
  lru_unlink_locked(s, e);
  --s.count;
  ++s.c.erases;
  size_.fetch_sub(1, std::memory_order_relaxed);
  // Destruction is deferred past the lock (and past the caller's frame
  // when this is a session erasing itself mid-on_frame); erase() fires no
  // eviction callback — the caller asked, no one needs notifying.
  scope.graveyard().push_back({e, EvictReason::kIdle, /*notify=*/false});
  return true;
}

bool SessionTable::pin(const FlowId& flow, bool pinned) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  const auto lock = maybe_lock(s);
  Entry* e = find_locked(s, h, flow);
  if (e == nullptr) return false;
  e->pinned = pinned;
  return true;
}

bool SessionTable::contains(const FlowId& flow) const {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  const auto lock = maybe_lock(s);
  return const_cast<SessionTable*>(this)->find_locked(s, h, flow) != nullptr;
}

std::size_t SessionTable::sweep_idle(SimTime now) {
  if (cfg_.idle_timeout <= 0) return 0;
  std::size_t evicted = 0;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    // One scope per shard: each shard's eviction callbacks run after that
    // shard unlocks and before the next one locks, so the sweep never
    // holds a lock while user code runs.
    ShardScope scope(*this, s);
    // The LRU is ordered by last_active (every touch moves to head), so
    // the sweep walks the cold tail and stops at the first live entry —
    // pinned entries are stepped over, never evicted.
    Entry* e = s.lru_tail;
    while (e != nullptr && now - e->last_active >= cfg_.idle_timeout) {
      Entry* prev = e->lru_prev;
      if (!e->pinned) {
        evict_locked(s, e, EvictReason::kIdle, scope.graveyard());
        ++evicted;
      }
      e = prev;
    }
  }
  return evicted;
}

std::size_t SessionTable::size() const noexcept {
  return size_.load(std::memory_order_relaxed);
}

std::vector<std::size_t> SessionTable::shard_sizes() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const auto& sp : shards_) {
    const auto lock = maybe_lock(*sp);
    out.push_back(sp->count);
  }
  return out;
}

SessionTableStats SessionTable::stats() const {
  SessionTableStats t;
  for (const auto& sp : shards_) {
    const auto lock = maybe_lock(*sp);
    const ShardCounters& c = sp->c;
    t.lookups += c.lookups;
    t.hits += c.hits;
    t.misses += c.misses;
    t.inserts += c.inserts;
    t.erases += c.erases;
    t.evictions_idle += c.evictions_idle;
    t.evictions_shed += c.evictions_shed;
    t.occupancy += sp->count;
  }
  t.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  t.occupancy_peak = size_peak_.load(std::memory_order_relaxed);
  return t;
}

void SessionTable::emit_metrics(obs::MetricSink& sink) const {
  const SessionTableStats t = stats();
  sink.counter("lookups", t.lookups);
  sink.counter("hits", t.hits);
  sink.counter("misses", t.misses);
  sink.counter("inserts", t.inserts);
  sink.counter("erases", t.erases);
  sink.counter("evictions_idle", t.evictions_idle);
  sink.counter("evictions_shed", t.evictions_shed);
  sink.counter("admission_rejects", t.admission_rejects);
  sink.gauge("occupancy", static_cast<double>(t.occupancy));
  sink.gauge("occupancy_peak", static_cast<double>(t.occupancy_peak));
  sink.gauge("shards", static_cast<double>(shards_.size()));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    obs::PrefixedSink ps(sink, "shard" + std::to_string(i) + ".");
    const auto lock = maybe_lock(s);
    ps.gauge("occupancy", static_cast<double>(s.count));
    ps.gauge("occupancy_peak", static_cast<double>(s.c.occupancy_peak));
    ps.counter("lookups", s.c.lookups);
    ps.counter("misses", s.c.misses);
    ps.counter("evictions_idle", s.c.evictions_idle);
    ps.counter("evictions_shed", s.c.evictions_shed);
  }
}

}  // namespace ngp::sessiond
