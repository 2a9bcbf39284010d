// event_loop.h — deterministic discrete-event scheduler.
//
// The simulator core: events are (time, callback) pairs executed in time
// order; ties break by insertion order so runs are fully deterministic.
// Links, transports and application timers all schedule through one loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sim_clock.h"

namespace ngp {

/// Handle for cancelling a scheduled event: a slot index and that slot's
/// generation, never 0.
using EventId = std::uint64_t;

/// A move-only `void()` callable kept in place. A capture of up to two
/// pointers (the largest on the data path: a link's `(this, slot)`) is
/// stored inside the object, so making one allocates nothing; a larger
/// capture, or one that is not nothrow-movable, is moved to the heap.
class EventFn {
 public:
  static constexpr std::size_t kInline = 2 * sizeof(void*);

  EventFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): as std::function
    using T = std::decay_t<F>;
    if constexpr (fits<T>()) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(fn));
      ops_ = &kInlineOps<T>;
    } else {
      ::new (static_cast<void*>(buf_)) T*(new T(std::forward<F>(fn)));
      ops_ = &kHeapOps<T>;
    }
  }

  EventFn(EventFn&& o) noexcept { take(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  /// Destroys the callable; the function is empty afterwards.
  void reset() noexcept {
    const Ops* ops = std::exchange(ops_, nullptr);
    if (ops != nullptr && ops->destroy != nullptr) ops->destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  ///< null: bytewise
    void (*destroy)(void*) noexcept;                  ///< null: trivial
  };

  template <typename T>
  static constexpr bool fits() {
    return sizeof(T) <= kInline && alignof(T) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<T>;
  }
  template <typename T>
  static T* as(void* p) noexcept {
    return std::launder(static_cast<T*>(p));
  }
  template <typename T>
  static void relocate_inline(void* dst, void* src) noexcept {
    T* from = as<T>(src);
    ::new (dst) T(std::move(*from));
    from->~T();
  }
  template <typename T>
  static constexpr Ops kInlineOps{
      [](void* p) { (*as<T>(p))(); },
      std::is_trivially_copyable_v<T> ? nullptr : &relocate_inline<T>,
      std::is_trivially_destructible_v<T>
          ? nullptr
          : +[](void* p) noexcept { as<T>(p)->~T(); }};
  template <typename T>
  static constexpr Ops kHeapOps{
      [](void* p) { (**as<T*>(p))(); }, nullptr,
      +[](void* p) noexcept { delete *as<T*>(p); }};

  void take(EventFn& o) noexcept {
    ops_ = std::exchange(o.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, o.buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInline);
    }
  }

  alignas(void*) unsigned char buf_[kInline] = {};
  const Ops* ops_ = nullptr;
};

/// Discrete-event loop over simulated time.
///
/// Each scheduled callable lives in a slot of an array that grows in
/// fixed blocks and never moves; freed slots go on a free list, so once the
/// number of pending events stops growing, scheduling allocates nothing.
/// The run order is a binary heap of (when, seq, slot): `seq` counts every
/// event ever scheduled, so ties break by insertion order. A cancelled
/// event frees its slot at once and leaves its heap entry behind, which is
/// skipped when popped or swept when dead entries dominate the heap.
///
/// Not thread-safe by design: the whole simulation is single-threaded and
/// deterministic (DESIGN.md §4 substitution: simulator replaces testbed).
class EventLoop {
 public:
  /// A place in the run order: the (when, seq) key an event scheduled at
  /// that moment for `when` takes.
  struct Mark {
    SimTime when;
    std::uint64_t seq;
  };

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now, else clamped).
  EventId schedule_at(SimTime when, EventFn fn);

  /// Schedules `fn` after `delay` nanoseconds.
  EventId schedule_after(SimDuration delay, EventFn fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled, or the id was never issued; an id stays stale after its
  /// slot is reused (until the slot's 32-bit generation wraps).
  bool cancel(EventId id);

  /// Runs events until the queue drains or `until` is passed.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Runs until the queue is empty. Returns events executed.
  std::size_t run();

  /// Executes at most one event. Returns false if the queue is empty.
  bool step();

  /// Number of live events waiting: neither run, running nor cancelled.
  std::size_t pending() const noexcept { return live_; }
  /// True while event `id` is scheduled: it has neither run nor been
  /// cancelled. One array read.
  bool pending(EventId id) const noexcept {
    const auto index = static_cast<std::uint32_t>(id);
    if (index >= slot_count_) return false;
    const Slot& s = slot(index);
    return s.seq != kNoSeq && s.gen == (id >> 32);
  }

  /// Takes the place in the run order that an event scheduled now for
  /// `when` (>= now, else clamped) would take, without scheduling one: it
  /// uses up a seq, so every event scheduled later sorts after it.
  Mark mark(SimTime when) noexcept {
    return Mark{when < now_ ? now_ : when, next_seq_++};
  }
  /// True once an event placed at `m` would have run: `m` sorts before
  /// the event running now (or the last one run), or before the instant a
  /// finished run_until() reached. Lets an object derive what a
  /// bookkeeping event would have done instead of scheduling it.
  bool passed(Mark m) const noexcept {
    return m.when < done_.when || (m.when == done_.when && m.seq < done_.seq);
  }

 private:
  static constexpr std::uint32_t kBlockBits = 8;  ///< 256 slots per block
  static constexpr std::uint32_t kBlockSize = 1u << kBlockBits;
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  struct Slot {
    EventFn fn;
    std::uint64_t seq = kNoSeq;  ///< seq of the event held; kNoSeq when none
    std::uint32_t gen = 1;       ///< the id's upper half while pending
    std::uint32_t next_free = kNoSlot;
  };

  struct Event {
    SimTime when;
    std::uint64_t seq;  // insertion order: deterministic tie-break
    std::uint32_t slot;
    // Heap ordering (std::push_heap et al. build a max-heap; invert so the
    // earliest event sits at the front).
    bool operator<(const Event& other) const noexcept {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  Slot& slot(std::uint32_t i) noexcept {
    return blocks_[i >> kBlockBits][i & (kBlockSize - 1)];
  }
  const Slot& slot(std::uint32_t i) const noexcept {
    return blocks_[i >> kBlockBits][i & (kBlockSize - 1)];
  }
  /// True while heap entry `e` still names the event in its slot.
  bool live(const Event& e) const noexcept { return slot(e.slot).seq == e.seq; }
  /// Ends the pending life of the event in `s`: its id and heap entry go
  /// stale. The callable stays until release().
  void retire(Slot& s) noexcept;
  /// Destroys slot `i`'s callable and puts the slot on the free list.
  void release(std::uint32_t i) noexcept;
  /// Runs the callable in slot `i` in place, then releases the slot.
  void invoke(std::uint32_t i);

  /// Drops every cancelled entry and re-heapifies: O(n), amortised O(1)
  /// per cancel since it only runs once dead entries dominate the heap.
  void compact();
  /// Pops cancelled entries off the heap front so front() is live.
  void drop_cancelled_front();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Every event and mark sorting before this key has run or passed.
  Mark done_{0, 0};
  std::vector<Event> heap_;  // min-heap via Event::operator<
  std::vector<std::unique_ptr<Slot[]>> blocks_;  ///< slots never move
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_ = kNoSlot;  ///< head of the free-slot list
  std::size_t live_ = 0;
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

  EventId schedule_at(SimTime when, EventFn fn) {
    if (ids_.size() == ids_.capacity()) prune();
    const EventId id = loop_.schedule_at(when, std::move(fn));
    ids_.push_back(id);
    return id;
  }
  EventId schedule_after(SimDuration delay, EventFn fn) {
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
