// Tests for src/util: buffers, wire codecs, Result, RNG, stats, event loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/event_loop.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "util/stats.h"

namespace ngp {
namespace {

// ---- ByteBuffer ------------------------------------------------------------

TEST(ByteBuffer, DefaultIsEmpty) {
  ByteBuffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
}

TEST(ByteBuffer, SizedConstructionZeroFills) {
  ByteBuffer b(16);
  ASSERT_EQ(b.size(), 16u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0u);
}

TEST(ByteBuffer, FromStringKeepsBytes) {
  auto b = ByteBuffer::from_string("abc");
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], 'a');
  EXPECT_EQ(b[2], 'c');
}

TEST(ByteBuffer, DataIs64ByteAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    ByteBuffer b(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u) << n;
  }
}

TEST(ByteBuffer, AppendGrowsAndPreserves) {
  ByteBuffer b;
  b.append(std::uint8_t{1});
  auto tail = ByteBuffer::from_string("xy");
  b.append(tail.span());
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 'x');
  EXPECT_EQ(b[2], 'y');
}

TEST(ByteBuffer, SubspanClampsToEnd) {
  ByteBuffer b(10);
  EXPECT_EQ(b.subspan(4, 100).size(), 6u);
  EXPECT_EQ(b.subspan(10, 1).size(), 0u);
  EXPECT_EQ(b.subspan(99, 1).size(), 0u);
}

TEST(ByteBuffer, EqualityIsByContent) {
  auto a = ByteBuffer::from_string("same");
  auto b = ByteBuffer::from_string("same");
  auto c = ByteBuffer::from_string("diff");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---- Hex -------------------------------------------------------------------

TEST(Hex, RoundTrip) {
  auto b = ByteBuffer::from_string("\x00\xff\x10 Az");
  EXPECT_EQ(from_hex(to_hex(b.span())), b);
}

TEST(Hex, KnownEncoding) {
  std::uint8_t raw[] = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(to_hex({raw, 4}), "deadbeef");
}

TEST(Hex, RejectsOddLength) { EXPECT_TRUE(from_hex("abc").empty()); }

TEST(Hex, RejectsNonHex) { EXPECT_TRUE(from_hex("zz").empty()); }

TEST(Hex, AcceptsUppercase) {
  auto b = from_hex("DEADBEEF");
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0xde);
}

// ---- WireWriter / WireReader -----------------------------------------------

TEST(Wire, WriteReadRoundTripAllWidths) {
  ByteBuffer buf(15);
  WireWriter w(buf.span());
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);

  WireReader r(buf.span());
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  ASSERT_TRUE(r.u8(a));
  ASSERT_TRUE(r.u16(b));
  ASSERT_TRUE(r.u32(c));
  ASSERT_TRUE(r.u64(d));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0x1234);
  EXPECT_EQ(c, 0xDEADBEEF);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, BigEndianOnTheWire) {
  ByteBuffer buf(4);
  WireWriter w(buf.span());
  w.u32(0x01020304);
  ASSERT_EQ(w.written(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(Wire, ShortReadFailsWithoutAdvancing) {
  ByteBuffer buf(2);
  WireWriter w(buf.span());
  w.u16(7);
  WireReader r(buf.span());
  std::uint32_t v = 0;
  EXPECT_FALSE(r.u32(v));
  EXPECT_EQ(r.position(), 0u);
  std::uint16_t ok = 0;
  EXPECT_TRUE(r.u16(ok));
  EXPECT_EQ(ok, 7);
}

TEST(Wire, BytesViewsUnderlyingInput) {
  ByteBuffer buf = ByteBuffer::from_string("hello world");
  WireReader r(buf.span());
  ConstBytes view;
  ASSERT_TRUE(r.bytes(5, view));
  EXPECT_EQ(view.data(), buf.data());
  EXPECT_EQ(view.size(), 5u);
  EXPECT_EQ(r.rest().size(), 6u);
}

TEST(Wire, ByteswapHelpers) {
  EXPECT_EQ(byteswap32(0x01020304u), 0x04030201u);
  EXPECT_EQ(byteswap64(0x0102030405060708ull), 0x0807060504030201ull);
  std::uint8_t be[4] = {0x12, 0x34, 0x56, 0x78};
  EXPECT_EQ(load_u32_be(be), 0x12345678u);
  std::uint8_t out[4];
  store_u32_be(out, 0x12345678u);
  EXPECT_EQ(memcmp(be, out, 4), 0);
}

// ---- Result / Status ---------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(ErrorCode::kTruncated, "short");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kTruncated);
  EXPECT_EQ(r.error().to_string(), "truncated: short");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesError) {
  Status s(ErrorCode::kChecksumMismatch);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kChecksumMismatch);
}

TEST(Result, EveryErrorCodeHasName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kLimitExceeded); ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "unknown");
  }
}

// ---- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform(10), 10u);
  EXPECT_EQ(r.uniform(0), 0u);
  EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.uniform_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(Rng, FillCoversAllLengths) {
  Rng r(17);
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 31u, 64u}) {
    ByteBuffer b(len);
    r.fill(b.span());
    if (len >= 16) {
      // Overwhelmingly unlikely to stay all-zero.
      bool nonzero = false;
      for (std::size_t i = 0; i < len; ++i) nonzero |= b[i] != 0;
      EXPECT_TRUE(nonzero);
    }
  }
}

TEST(Rng, ForkIndependent) {
  Rng a(21);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

// ---- Stats -------------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Percentiles, NearestRank) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_EQ(p.percentile(50), 50.0);
  EXPECT_EQ(p.percentile(99), 99.0);
  EXPECT_EQ(p.percentile(100), 100.0);
  EXPECT_EQ(p.percentile(0), 1.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0, 10, 10);
  h.add(-1);
  h.add(0);
  h.add(9.99);
  h.add(10);
  h.add(5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Stats, MegabitsPerSecond) {
  EXPECT_DOUBLE_EQ(megabits_per_second(1'000'000, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(megabits_per_second(125'000, 1.0), 1.0);
  EXPECT_EQ(megabits_per_second(100, 0.0), 0.0);
}

// ---- SimClock ------------------------------------------------------------------

TEST(SimClock, Conversions) {
  EXPECT_EQ(kSecond, 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(0.5), 500 * kMillisecond);
}

TEST(SimClock, TransmissionTime) {
  // 1500 bytes at 12 Mb/s = 1 ms.
  EXPECT_EQ(transmission_time(1500, 12e6), kMillisecond);
  EXPECT_EQ(transmission_time(1500, 0), 0);
}

// ---- EventLoop -------------------------------------------------------------------

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, TieBreaksByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleAfterUsesNow) {
  EventLoop loop;
  SimTime seen = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { seen = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(seen, 150);
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  SimTime seen = -1;
  loop.schedule_at(5, [&] { seen = loop.now(); });  // in the past
  loop.run();
  EXPECT_EQ(seen, 100);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelHeavyWorkloadCompactsAndStaysCorrect) {
  // A cancel-heavy pattern (re-armed watchdogs): cancelling most of the
  // queue triggers heap compaction. pending() must count LIVE events
  // exactly, before and after compaction, and survivors must still run in
  // time order.
  EventLoop loop;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(loop.schedule_at(i + 1, [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_EQ(loop.pending(), 100u);
  for (int i = 0; i < 100; ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(loop.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_EQ(loop.pending(), 10u);  // exact despite bulk compaction
  EXPECT_EQ(loop.run(), 10u);
  ASSERT_EQ(fired.size(), 10u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i * 10));  // time order preserved
  }
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, InterleavedCancelAndScheduleKeepsPendingExact) {
  EventLoop loop;
  int live_runs = 0;
  for (int round = 0; round < 20; ++round) {
    const EventId doomed = loop.schedule_at(1000 + round, [] {});
    loop.schedule_at(500 + round, [&] { ++live_runs; });
    EXPECT_TRUE(loop.cancel(doomed));
    EXPECT_EQ(loop.pending(), static_cast<std::size_t>(round + 1));
  }
  EXPECT_EQ(loop.run(), 20u);
  EXPECT_EQ(live_runs, 20);
}

TEST(EventLoop, RunUntilIgnoresCancelledFrontEvents) {
  // A cancelled event BEFORE the boundary must not let a live event AFTER
  // the boundary execute early.
  EventLoop loop;
  bool late_ran = false;
  const EventId early = loop.schedule_at(10, [] {});
  loop.schedule_at(100, [&] { late_ran = true; });
  EXPECT_TRUE(loop.cancel(early));
  EXPECT_EQ(loop.run_until(50), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(loop.now(), 50);
  EXPECT_EQ(loop.run_until(100), 1u);
  EXPECT_TRUE(late_ran);
}

TEST(EventLoop, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(10, [&] { ++count; });
  loop.schedule_at(20, [&] { ++count; });
  loop.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(loop.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), 20);
  loop.run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) loop.schedule_after(10, recur);
  };
  loop.schedule_at(0, recur);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 40);
}

TEST(EventLoop, StepExecutesExactlyOne) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(1, [&] { ++count; });
  loop.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_FALSE(loop.step());
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, IdsAreNeverZeroAndStayStaleAfterSlotReuse) {
  EventLoop loop;
  const EventId first = loop.schedule_at(10, [] {});
  EXPECT_NE(first, 0u);
  EXPECT_TRUE(loop.cancel(first));
  // The next event reuses the freed slot under a new generation.
  const EventId second = loop.schedule_at(10, [] {});
  EXPECT_NE(second, 0u);
  EXPECT_NE(second, first);
  EXPECT_FALSE(loop.pending(first));
  EXPECT_FALSE(loop.cancel(first));
  EXPECT_TRUE(loop.pending(second));
  EXPECT_FALSE(loop.pending(0));
  EXPECT_FALSE(loop.cancel(0));
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_FALSE(loop.pending(second));
  EXPECT_FALSE(loop.cancel(second));
}

TEST(EventLoop, LargeCapturesRunAndAreFreed) {
  // A capture beyond EventFn's inline buffer goes to the heap; it runs,
  // and is destroyed whether it ran, was cancelled or was still pending
  // when the loop died (ASan reports a leak otherwise).
  std::array<std::uint64_t, 8> big{};
  big[7] = 42;
  std::uint64_t seen = 0;
  {
    EventLoop loop;
    loop.schedule_at(1, [&seen, big] { seen = big[7]; });
    const EventId doomed = loop.schedule_at(2, [big] { (void)big; });
    loop.schedule_at(3, [big, v = std::vector<int>(100)] { (void)big; });
    EXPECT_TRUE(loop.cancel(doomed));
    EXPECT_EQ(loop.run_until(1), 1u);
  }
  EXPECT_EQ(seen, 42u);
}

TEST(EventLoop, MarksPassInRunOrder) {
  // A mark takes the place an event scheduled at that moment would take:
  // an event at the same instant scheduled before it runs first, one
  // scheduled after it runs later.
  EventLoop loop;
  std::vector<bool> seen;
  EventLoop::Mark m{};
  loop.schedule_at(10, [&] { seen.push_back(loop.passed(m)); });
  m = loop.mark(10);
  loop.schedule_at(10, [&] { seen.push_back(loop.passed(m)); });
  EXPECT_FALSE(loop.passed(m));
  EXPECT_TRUE(loop.step());
  EXPECT_FALSE(loop.passed(m));  // between steps, still before the mark
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(seen, (std::vector<bool>{false, true}));
  // A finished run_until passes every mark placed at or before its end;
  // one placed afterwards at the same instant waits for the next run.
  const EventLoop::Mark later = loop.mark(20);
  loop.run_until(20);
  EXPECT_TRUE(loop.passed(later));
  const EventLoop::Mark now = loop.mark(20);
  EXPECT_FALSE(loop.passed(now));
  loop.run_until(20);
  EXPECT_TRUE(loop.passed(now));
}

// ---- EventLoop against the loop it replaced --------------------------------------

/// The event loop as it was before the slot array: a heap of (when, seq,
/// id) over an id-keyed callback map, cancelled entries skipped when
/// popped or compacted away. Kept as the reference the slot array must
/// match call for call.
class ReferenceLoop {
 public:
  SimTime now() const noexcept { return now_; }

  EventId schedule_at(SimTime when, std::function<void()> fn) {
    if (when < now_) when = now_;
    const EventId id = next_id_++;
    heap_.push_back(Event{when, next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end());
    callbacks_.emplace(id, std::move(fn));
    return id;
  }
  bool cancel(EventId id) {
    if (callbacks_.erase(id) == 0) return false;
    ++cancelled_count_;
    if (cancelled_count_ > heap_.size() / 2) compact();
    return true;
  }
  std::size_t run_until(SimTime until) {
    std::size_t executed = 0;
    for (;;) {
      drop_cancelled_front();
      if (heap_.empty() || heap_.front().when > until) break;
      if (step()) ++executed;
    }
    if (now_ < until) now_ = until;
    return executed;
  }
  std::size_t run() {
    std::size_t executed = 0;
    while (step()) ++executed;
    return executed;
  }
  bool step() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      Event ev = heap_.back();
      heap_.pop_back();
      auto it = callbacks_.find(ev.id);
      if (it == callbacks_.end()) {
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
  std::size_t pending() const noexcept { return callbacks_.size(); }
  bool pending(EventId id) const { return callbacks_.contains(id); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    EventId id;
    bool operator<(const Event& other) const noexcept {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };
  void compact() {
    std::erase_if(heap_,
                  [this](const Event& e) { return !callbacks_.contains(e.id); });
    std::make_heap(heap_.begin(), heap_.end());
    cancelled_count_ = 0;
  }
  void drop_cancelled_front() {
    while (!heap_.empty() && !callbacks_.contains(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      if (cancelled_count_ > 0) --cancelled_count_;
    }
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::vector<Event> heap_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
  std::size_t cancelled_count_ = 0;
};

/// Drives one loop through a seeded sequence of schedules (many at equal
/// or past times, some from inside callbacks), cancels (of live, run,
/// cancelled and never-issued ids, including ids whose slot a later event
/// took), steps and runs, and logs every value the loop returns. Ids are
/// loop-specific, so events are named by the order they were scheduled in;
/// a never-issued id is 0 or `never_issued(n)`.
template <typename Loop>
class LoopScript {
 public:
  LoopScript(std::uint64_t seed, EventId (*never_issued)(std::uint64_t))
      : rng_(seed), never_issued_(never_issued) {}

  std::vector<std::int64_t> drive(int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t kind = rng_.uniform(100);
      if (kind < 35) {
        schedule(rng_);
      } else if (kind < 55) {
        cancel(rng_);
      } else if (kind < 65) {
        query(rng_);
      } else if (kind < 85) {
        log(loop_.step() ? 1 : 0);
      } else if (kind < 98) {
        const auto ahead = static_cast<SimDuration>(rng_.uniform(24)) - 4;
        log(static_cast<std::int64_t>(loop_.run_until(loop_.now() + ahead)));
      } else {
        log(static_cast<std::int64_t>(loop_.run()));
      }
      log(loop_.now());
      log(static_cast<std::int64_t>(loop_.pending()));
    }
    log(static_cast<std::int64_t>(loop_.run()));
    log(loop_.now());
    return std::move(log_);
  }

 private:
  void log(std::int64_t v) { log_.push_back(v); }

  /// Times cluster on a few instants around now, some in the past.
  void schedule(Rng& rng) {
    const auto k = static_cast<std::uint64_t>(ids_.size());
    const SimTime when = loop_.now() + static_cast<SimDuration>(rng.uniform(12)) - 3;
    EventId id = 0;
    if (k % 5 == 4) {
      // A capture beyond the inline buffer.
      std::array<std::uint64_t, 4> pad{k, k, k, k};
      id = loop_.schedule_at(when, [this, k, pad] { fire(k + pad[3] - pad[0]); });
    } else {
      id = loop_.schedule_at(when, [this, k] { fire(k); });
    }
    ids_.push_back(id);
    log(static_cast<std::int64_t>(k));
  }

  void cancel(Rng& rng) {
    const std::uint64_t pick = rng.uniform(10);
    EventId id = 0;
    if (pick == 0 || ids_.empty()) {
      id = rng.uniform(2) == 0 ? 0 : never_issued_(rng.next());
    } else {
      id = ids_[rng.uniform(ids_.size())];
    }
    log(loop_.cancel(id) ? 1 : 0);
  }

  void query(Rng& rng) {
    const EventId id =
        ids_.empty() ? never_issued_(rng.next()) : ids_[rng.uniform(ids_.size())];
    log(loop_.pending(id) ? 1 : 0);
    log(static_cast<std::int64_t>(loop_.pending()));
  }

  /// Event `k` runs: it logs its name and the time, then does what a
  /// generator seeded by its name says: schedule, cancel or query.
  void fire(std::uint64_t k) {
    log(-1 - static_cast<std::int64_t>(k));
    log(loop_.now());
    Rng rng(k * 0x9E3779B97F4A7C15ull + 1);
    for (std::uint64_t n = rng.uniform(4); n > 0; --n) {
      const std::uint64_t kind = rng.uniform(3);
      if (kind == 0 && ids_.size() < 4000) {
        schedule(rng);
      } else if (kind == 1) {
        cancel(rng);
      } else {
        query(rng);
      }
    }
  }

  Loop loop_;
  Rng rng_;
  EventId (*never_issued_)(std::uint64_t);
  std::vector<EventId> ids_;  ///< by schedule order
  std::vector<std::int64_t> log_;
};

TEST(EventLoopDifferential, MatchesTheHeapAndMapLoopCallForCall) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    // The reference issues ids 1, 2, 3, ...; the slot array never issues
    // generation 0.
    const auto ref = LoopScript<ReferenceLoop>(seed, [](std::uint64_t r) {
                       return EventId{1} << 40 | (r & 0xFFFF'FFFFu);
                     }).drive(3000);
    const auto slots = LoopScript<EventLoop>(seed, [](std::uint64_t r) {
                         return r & 0xFFFF'FFFFu;
                       }).drive(3000);
    const auto diff =
        std::mismatch(ref.begin(), ref.end(), slots.begin(), slots.end());
    ASSERT_TRUE(diff.first == ref.end() && diff.second == slots.end())
        << "first difference at log entry " << (diff.first - ref.begin())
        << " of " << ref.size() << " and " << slots.size() << ": reference "
        << (diff.first != ref.end() ? *diff.first : 0) << ", slot array "
        << (diff.second != slots.end() ? *diff.second : 0);
  }
}

}  // namespace
}  // namespace ngp
