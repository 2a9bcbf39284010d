#include "util/event_loop.h"

#include <algorithm>

namespace ngp {

EventId EventLoop::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) when = now_;
  const EventId id = next_id_++;
  heap_.push_back(Event{when, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end());
  callbacks_.emplace(id, std::move(fn));
  return id;
}

bool EventLoop::cancel(EventId id) {
  if (callbacks_.erase(id) == 0) return false;
  ++cancelled_count_;
  // Lazy cancellation is fine while dead entries are the minority, but a
  // cancel-heavy workload (re-armed watchdogs, torn-down sessions) would
  // otherwise let them dominate the heap and every push/pop pays for them.
  if (cancelled_count_ > heap_.size() / 2) compact();
  return true;
}

void EventLoop::compact() {
  std::erase_if(heap_,
                [this](const Event& e) { return !callbacks_.contains(e.id); });
  std::make_heap(heap_.begin(), heap_.end());
  cancelled_count_ = 0;
}

void EventLoop::drop_cancelled_front() {
  while (!heap_.empty() && !callbacks_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    if (cancelled_count_ > 0) --cancelled_count_;
  }
}

bool EventLoop::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    Event ev = heap_.back();
    heap_.pop_back();
    auto it = callbacks_.find(ev.id);
    if (it == callbacks_.end()) {
      // Cancelled: skip.
      if (cancelled_count_ > 0) --cancelled_count_;
      continue;
    }
    std::function<void()> fn = std::move(it->second);
    callbacks_.erase(it);
    now_ = ev.when;
    fn();
    return true;
  }
  return false;
}

std::size_t EventLoop::run_until(SimTime until) {
  std::size_t executed = 0;
  for (;;) {
    // Purge dead entries first so the time check reads a LIVE event: a
    // cancelled early entry must not let a live later-than-`until` event
    // sneak in through step().
    drop_cancelled_front();
    if (heap_.empty() || heap_.front().when > until) break;
    if (step()) ++executed;
  }
  if (now_ < until) now_ = until;
  return executed;
}

std::size_t EventLoop::run() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

OwnedEvents::~OwnedEvents() {
  for (EventId id : ids_) loop_.cancel(id);
}

void OwnedEvents::prune() {
  std::erase_if(ids_, [this](EventId id) { return !loop_.pending(id); });
  if (4 * ids_.size() >= ids_.capacity()) {
    ids_.reserve(std::max<std::size_t>(16, 2 * ids_.capacity()));
  }
}

}  // namespace ngp
