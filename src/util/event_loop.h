// event_loop.h — deterministic discrete-event scheduler.
//
// The simulator core: events are (time, callback) pairs executed in time
// order; ties break by insertion order so runs are fully deterministic.
// Links, transports and application timers all schedule through one loop.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/sim_clock.h"

namespace ngp {

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

/// Discrete-event loop over simulated time.
///
/// Not thread-safe by design: the whole simulation is single-threaded and
/// deterministic (DESIGN.md §4 substitution: simulator replaces testbed).
class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now, else clamped).
  EventId schedule_at(SimTime when, std::function<void()> fn);

  /// Schedules `fn` after `delay` nanoseconds.
  EventId schedule_after(SimDuration delay, std::function<void()> fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Cancels a pending event. Returns false if already fired or unknown.
  bool cancel(EventId id);

  /// Runs events until the queue drains or `until` is passed.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Runs until the queue is empty. Returns events executed.
  std::size_t run();

  /// Executes at most one event. Returns false if the queue is empty.
  bool step();

  /// Number of live events waiting. Counted from the callback table, so it
  /// is exact whether or not cancelled heap entries have been compacted
  /// away yet.
  std::size_t pending() const noexcept { return callbacks_.size(); }
  /// True while event `id` is scheduled: it has neither run nor been
  /// cancelled.
  bool pending(EventId id) const { return callbacks_.contains(id); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // insertion order: deterministic tie-break
    EventId id;
    // Heap ordering (std::push_heap et al. build a max-heap; invert so the
    // earliest event sits at the front).
    bool operator<(const Event& other) const noexcept {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  /// Drops every cancelled entry and re-heapifies: O(n), amortised O(1)
  /// per cancel since it only runs once dead entries dominate the heap.
  void compact();
  /// Pops cancelled entries off the heap front so front() is live.
  void drop_cancelled_front();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::vector<Event> heap_;  // min-heap via Event::operator<
  // Callbacks keyed by id; erased on cancel. Cancelled heap entries are
  // skipped lazily when popped, or swept in bulk by compact().
  std::unordered_map<EventId, std::function<void()>> callbacks_;
  std::size_t cancelled_count_ = 0;
};

/// The events one object schedules with callbacks that capture it. The
/// destructor cancels those still pending, so an object destroyed with
/// events in flight is never called back while the loop runs on. Ids of
/// events that have run are dropped lazily, when the list fills, so once
/// the number pending stops growing the list allocates nothing more.
/// Scheduling through it calls the loop exactly as a direct call would:
/// the events' (when, seq) order is unchanged.
class OwnedEvents {
 public:
  explicit OwnedEvents(EventLoop& loop) : loop_(loop) {}
  ~OwnedEvents();
  OwnedEvents(const OwnedEvents&) = delete;
  OwnedEvents& operator=(const OwnedEvents&) = delete;

  EventId schedule_at(SimTime when, std::function<void()> fn) {
    if (ids_.size() == ids_.capacity()) prune();
    const EventId id = loop_.schedule_at(when, std::move(fn));
    ids_.push_back(id);
    return id;
  }
  EventId schedule_after(SimDuration delay, std::function<void()> fn) {
    return schedule_at(loop_.now() + (delay < 0 ? 0 : delay), std::move(fn));
  }

 private:
  /// Forgets the events that have run; grows the list while more than a
  /// quarter are still pending, so each id is looked up about once.
  void prune();

  EventLoop& loop_;
  std::vector<EventId> ids_;  ///< pending, plus some that have run
};

}  // namespace ngp
