#include "util/event_loop.h"

#include <algorithm>

namespace ngp {

EventId EventLoop::schedule_at(SimTime when, EventFn fn) {
  if (when < now_) when = now_;
  std::uint32_t i = free_;
  if (i != kNoSlot) {
    free_ = slot(i).next_free;
  } else {
    if ((slot_count_ & (kBlockSize - 1)) == 0) {
      blocks_.push_back(std::make_unique<Slot[]>(kBlockSize));
    }
    i = slot_count_++;
  }
  Slot& s = slot(i);
  s.fn = std::move(fn);
  s.seq = next_seq_++;
  heap_.push_back(Event{when, s.seq, i});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_;
  return (EventId{s.gen} << 32) | i;
}

bool EventLoop::cancel(EventId id) {
  if (!pending(id)) return false;
  const auto i = static_cast<std::uint32_t>(id);
  retire(slot(i));
  release(i);
  ++cancelled_count_;
  // Lazy cancellation is fine while dead entries are the minority, but a
  // cancel-heavy workload (re-armed watchdogs, torn-down sessions) would
  // otherwise let them dominate the heap and every push/pop pays for them.
  if (cancelled_count_ > heap_.size() / 2) compact();
  return true;
}

void EventLoop::retire(Slot& s) noexcept {
  s.seq = kNoSeq;
  if (++s.gen == 0) s.gen = 1;  // ids are never 0
  --live_;
}

void EventLoop::release(std::uint32_t i) noexcept {
  Slot& s = slot(i);
  s.fn.reset();
  s.next_free = free_;
  free_ = i;
}

void EventLoop::invoke(std::uint32_t i) {
  // Blocks never move, so the callable runs where it was stored even if it
  // schedules more events; its slot joins the free list only afterwards.
  struct Release {
    EventLoop* loop;
    std::uint32_t i;
    ~Release() { loop->release(i); }
  } release{this, i};
  Slot& s = slot(i);
  retire(s);
  s.fn();
}

void EventLoop::compact() {
  std::erase_if(heap_, [this](const Event& e) { return !live(e); });
  std::make_heap(heap_.begin(), heap_.end());
  cancelled_count_ = 0;
}

void EventLoop::drop_cancelled_front() {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    if (cancelled_count_ > 0) --cancelled_count_;
  }
}

bool EventLoop::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const Event ev = heap_.back();
    heap_.pop_back();
    if (!live(ev)) {
      // Cancelled: skip.
      if (cancelled_count_ > 0) --cancelled_count_;
      continue;
    }
    now_ = ev.when;
    done_ = Mark{ev.when, ev.seq + 1};
    invoke(ev.slot);
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
  if (now_ <= until) {
    // Everything placed at or before `until` so far has run.
    now_ = until;
    done_ = Mark{until, next_seq_};
  }
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
