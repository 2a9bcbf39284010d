#include "sessiond/session_table.h"

#include <algorithm>
#include <utility>

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

class SessionTable::ShardScope {
 public:
  ShardScope(SessionTable& table, Shard& s) : table_(table), s_(s) {
    ++s.depth;
  }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
  ~ShardScope() {
    if (--s_.depth == 0 && !s_.graveyard.empty()) table_.settle(s_);
  }

 private:
  SessionTable& table_;
  Shard& s_;
};

void SessionTable::settle(Shard& s) {
  // The shard is at depth 0 while the callbacks and destructors run, so a
  // removal one of them makes opens its own outermost call and is settled
  // before that call returns.
  std::vector<PendingEvict> batch;
  batch.swap(s.graveyard);
  for (PendingEvict& p : batch) {
    if (p.notify && on_evict_) on_evict_(p.entry->flow, *p.entry->session, p.reason);
    delete p.entry;
  }
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

SessionTable::SessionTable(SessionTableConfig cfg)
    : cfg_(cfg),
      shards_(round_up_pow2(std::max<std::size_t>(1, cfg.shards))),
      shard_mask_(shards_.size() - 1) {
  const std::size_t cap =
      round_up_pow2(std::max<std::size_t>(4, cfg_.initial_shard_capacity));
  for (Shard& s : shards_) s.slots.assign(cap, nullptr);
}

SessionTable::~SessionTable() {
  // Unlink every entry before destroying any: a session destructor that
  // re-enters the table (an erase from a completion it settles, a
  // contains() on a sibling) must find nothing rather than an entry that
  // is already freed or about to be.
  std::vector<Entry*> doomed;
  doomed.reserve(size_);
  for (Shard& s : shards_) {
    for (Entry*& e : s.slots) {
      if (e != nullptr) doomed.push_back(std::exchange(e, nullptr));
    }
    s.count = 0;
    s.lru_head = s.lru_tail = nullptr;
  }
  size_ = 0;
  for (Entry* e : doomed) delete e;
}

SessionTable::Entry* SessionTable::find(const Shard& s, std::uint64_t hash,
                                        const FlowId& flow) {
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

void SessionTable::insert_slot(Shard& s, Entry* e) {
  const std::size_t mask = s.slots.size() - 1;
  std::size_t i = (e->hash >> 32) & mask;
  while (s.slots[i] != nullptr) i = (i + 1) & mask;
  s.slots[i] = e;
}

void SessionTable::remove_slot(Shard& s, const Entry* e) {
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

void SessionTable::grow(Shard& s) {
  std::vector<Entry*> old = std::move(s.slots);
  s.slots.assign(old.size() * 2, nullptr);
  for (Entry* e : old) {
    if (e != nullptr) insert_slot(s, e);
  }
}

void SessionTable::lru_unlink(Shard& s, Entry* e) {
  if (e->lru_prev != nullptr) e->lru_prev->lru_next = e->lru_next;
  else s.lru_head = e->lru_next;
  if (e->lru_next != nullptr) e->lru_next->lru_prev = e->lru_prev;
  else s.lru_tail = e->lru_prev;
  e->lru_prev = e->lru_next = nullptr;
}

void SessionTable::lru_touch(Shard& s, Entry* e) {
  if (s.lru_head == e) return;
  // A null prev on a non-head entry means e is not in the list yet (a
  // fresh insert) — unlinking it would clobber head/tail.
  if (e->lru_prev != nullptr) lru_unlink(s, e);
  e->lru_next = s.lru_head;
  if (s.lru_head != nullptr) s.lru_head->lru_prev = e;
  s.lru_head = e;
  if (s.lru_tail == nullptr) s.lru_tail = e;
}

void SessionTable::unlink(Shard& s, Entry* e, EvictReason reason,
                          bool notify) {
  remove_slot(s, e);
  lru_unlink(s, e);
  --s.count;
  --size_;
  // on_evict_ and the session's destructor run when the shard's outermost
  // call returns: raw pointers upstack (a route() mid-delivery, a sweep
  // walking the LRU) stay valid until then.
  s.graveyard.push_back({e, reason, notify});
}

SessionTable::Entry* SessionTable::pick_shed_victim(const Shard& s) const {
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

Result<Session*> SessionTable::admit(Shard& s, const FlowId& flow,
                                     std::uint64_t hash, SessionPtr session,
                                     SimTime now, bool pinned) {
  if (find(s, hash, flow) != nullptr) {
    return {ErrorCode::kDuplicate, "flow already resident"};
  }
  // Per-shard high water: admitting into a full shard sheds a resident, so
  // a storm concentrating on one shard degrades that shard by policy
  // instead of growing it without bound. The victim is only CHOSEN here —
  // nothing is evicted until every admission check has passed, so a
  // rejected insert never costs a resident session.
  Entry* victim = nullptr;
  if (cfg_.shard_highwater > 0 && s.count >= cfg_.shard_highwater) {
    victim = pick_shed_victim(s);
    if (victim == nullptr) {
      // Every resident is pinned: nothing to shed, so the shard cannot
      // make room — refuse rather than grow past the water line.
      ++admission_rejects_;
      return {ErrorCode::kLimitExceeded, "shard at high water, all pinned"};
    }
  }
  // Global cap, counting the room the pending shed would make (so at the
  // cap a high-water insert still admits by replacement).
  if (cfg_.max_sessions > 0 &&
      size_ - (victim != nullptr ? 1 : 0) >= cfg_.max_sessions) {
    ++admission_rejects_;
    return {ErrorCode::kLimitExceeded, "session table full"};
  }
  if (victim != nullptr) {
    ++s.c.evictions_shed;
    unlink(s, victim, EvictReason::kShed, /*notify=*/true);
  }
  if (needs_growth(s.count, s.slots.size())) grow(s);

  auto* e = new Entry{};
  e->flow = flow;
  e->hash = hash;
  e->session = std::move(session);
  e->last_active = now;
  e->pinned = pinned;
  insert_slot(s, e);
  lru_touch(s, e);
  ++s.count;
  ++s.c.inserts;
  s.c.occupancy_peak = std::max(s.c.occupancy_peak, s.count);
  ++size_;
  size_peak_ = std::max(size_peak_, size_);
  return e->session.get();
}

Result<Session*> SessionTable::insert(const FlowId& flow, SessionPtr session,
                                      SimTime now, bool pinned) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  ShardScope scope(*this, s);
  return admit(s, flow, h, std::move(session), now, pinned);
}

SessionTable::RouteOutcome SessionTable::route(const FlowId& flow, SimTime now,
                                               ConstBytes frame,
                                               const SessionFactory* factory,
                                               bool pinned) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  ShardScope scope(*this, s);
  ++s.c.lookups;
  if (Entry* e = find(s, h, flow)) {
    ++s.c.hits;
    e->last_active = now;
    lru_touch(s, e);
    // on_frame may erase this very flow: the entry is then unlinked but
    // parked in the shard's graveyard, so the session outlives the call.
    e->session->on_frame(frame);
    return RouteOutcome::kRouted;
  }
  ++s.c.misses;
  if (factory == nullptr || !*factory) return RouteOutcome::kNoSession;
  SessionPtr fresh = (*factory)(flow, frame);
  if (fresh == nullptr) return RouteOutcome::kNoSession;
  auto r = admit(s, flow, h, std::move(fresh), now, pinned);
  if (!r.ok()) return RouteOutcome::kRejected;
  (*r)->on_frame(frame);
  return RouteOutcome::kCreated;
}

bool SessionTable::erase(const FlowId& flow) {
  const std::uint64_t h = flow_hash(flow);
  Shard& s = shard_for(h);
  ShardScope scope(*this, s);
  Entry* e = find(s, h, flow);
  if (e == nullptr) return false;
  ++s.c.erases;
  // erase() fires no eviction callback — the caller asked, no one needs
  // notifying. Destruction waits past the caller's frame when this is a
  // session erasing itself mid-on_frame.
  unlink(s, e, EvictReason::kIdle, /*notify=*/false);
  return true;
}

bool SessionTable::pin(const FlowId& flow, bool pinned) {
  const std::uint64_t h = flow_hash(flow);
  Entry* e = find(shard_for(h), h, flow);
  if (e == nullptr) return false;
  e->pinned = pinned;
  return true;
}

bool SessionTable::contains(const FlowId& flow) const {
  const std::uint64_t h = flow_hash(flow);
  return find(shards_[h & shard_mask_], h, flow) != nullptr;
}

std::size_t SessionTable::sweep_idle(SimTime now) {
  if (cfg_.idle_timeout <= 0) return 0;
  std::size_t evicted = 0;
  for (Shard& s : shards_) {
    // One scope per shard: each shard's eviction callbacks run after its
    // walk and before the next shard's, so a flow a callback inserts into
    // a shard not yet walked is judged by its own last_active.
    ShardScope scope(*this, s);
    // The LRU is ordered by last_active (every touch moves to head), so
    // the sweep walks the cold tail and stops at the first live entry —
    // pinned entries are stepped over, never evicted.
    Entry* e = s.lru_tail;
    while (e != nullptr && now - e->last_active >= cfg_.idle_timeout) {
      Entry* prev = e->lru_prev;
      if (!e->pinned) {
        ++s.c.evictions_idle;
        unlink(s, e, EvictReason::kIdle, /*notify=*/true);
        ++evicted;
      }
      e = prev;
    }
  }
  return evicted;
}

std::vector<std::size_t> SessionTable::shard_sizes() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const Shard& s : shards_) out.push_back(s.count);
  return out;
}

SessionTableStats SessionTable::stats() const {
  SessionTableStats t;
  for (const Shard& s : shards_) {
    t.lookups += s.c.lookups;
    t.hits += s.c.hits;
    t.misses += s.c.misses;
    t.inserts += s.c.inserts;
    t.erases += s.c.erases;
    t.evictions_idle += s.c.evictions_idle;
    t.evictions_shed += s.c.evictions_shed;
    t.occupancy += s.count;
  }
  t.admission_rejects = admission_rejects_;
  t.occupancy_peak = size_peak_;
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
    const Shard& s = shards_[i];
    obs::PrefixedSink ps(sink, "shard" + std::to_string(i) + ".");
    ps.gauge("occupancy", static_cast<double>(s.count));
    ps.gauge("occupancy_peak", static_cast<double>(s.c.occupancy_peak));
    ps.counter("lookups", s.c.lookups);
    ps.counter("misses", s.c.misses);
    ps.counter("evictions_idle", s.c.evictions_idle);
    ps.counter("evictions_shed", s.c.evictions_shed);
  }
}

}  // namespace ngp::sessiond
