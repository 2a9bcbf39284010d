// FaultyPath coverage: every injected fault class fires when asked, never
// fires when not, and the whole plan is reproducible from its seed.
#include <gtest/gtest.h>

#include <vector>

#include "netsim/fault.h"
#include "util/rng.h"

#include "test_paths.h"

namespace ngp {
namespace {

using ngp::test::LoopbackPath;

/// Pushes `n` seeded random frames through a FaultyPath (loopback inner, so
/// send() round-trips into the delivery mangler) and returns what came out.
std::vector<ByteBuffer> drive(FaultyPath& path, EventLoop& loop, int n,
                              std::uint64_t traffic_seed = 42) {
  std::vector<ByteBuffer> out;
  path.set_handler([&](ConstBytes f) { out.push_back(ByteBuffer(f)); });
  Rng traffic(traffic_seed);
  for (int i = 0; i < n; ++i) {
    ByteBuffer frame(64 + traffic.uniform(200));
    traffic.fill(frame.span());
    path.send(frame.span());
  }
  loop.run();
  return out;
}

TEST(FaultyPath, TeardownClearsItsHandlerAndPendingInjections) {
  // The handler on the inner path, the planted frames and the pending
  // replays all close over the FaultyPath. After teardown a frame the
  // inner path delivers finds no handler, and no injection fires.
  EventLoop loop;
  LoopbackPath inner;
  int delivered = 0;
  {
    FaultPlan plan;
    plan.replay_rate = 1.0;
    plan.replay_delay = 2 * kMillisecond;
    plan.scheduled_frames.emplace_back(5 * kMillisecond, ByteBuffer(16));
    plan.scheduled_frames.emplace_back(kMillisecond, ByteBuffer(16));
    FaultyPath path(loop, inner, plan);
    path.set_handler([&](ConstBytes) { ++delivered; });
    const ByteBuffer frame(64);
    path.send(frame.span());  // delivered now, its replay 2 ms later
    EXPECT_EQ(delivered, 1);
    loop.run_until(kMillisecond + 1);  // the 1 ms plant fires
    EXPECT_EQ(delivered, 2);
  }
  EXPECT_FALSE(inner.has_handler());
  EXPECT_EQ(loop.pending(), 0u);
  const ByteBuffer frame(64);
  inner.send(frame.span());
  loop.run();
  EXPECT_EQ(delivered, 2);
}

TEST(FaultyPath, CleanPlanIsTransparent) {
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, FaultPlan{});
  std::vector<ByteBuffer> sent;
  std::vector<ByteBuffer> got;
  path.set_handler([&](ConstBytes f) { got.push_back(ByteBuffer(f)); });
  Rng traffic(1);
  for (int i = 0; i < 20; ++i) {
    ByteBuffer frame(100);
    traffic.fill(frame.span());
    sent.push_back(ByteBuffer(frame.span()));
    path.send(frame.span());
  }
  loop.run();
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], sent[i]);
  EXPECT_EQ(path.stats().frames_delivered, 20u);
  EXPECT_EQ(path.stats().payload_bitflips, 0u);
}

TEST(FaultyPath, SameSeedSameFaults) {
  // The whole point: an identical plan over identical traffic produces
  // byte-identical deliveries and identical counters.
  FaultPlan plan;
  plan.seed = 99;
  plan.payload_bitflip_rate = 0.3;
  plan.header_byte_rate = 0.2;
  plan.truncate_rate = 0.1;
  plan.extend_rate = 0.1;
  plan.blackhole_rate = 0.05;
  plan.replay_rate = 0.1;

  auto run = [&] {
    EventLoop loop;
    LoopbackPath inner;
    FaultyPath path(loop, inner, plan);
    auto out = drive(path, loop, 200);
    return std::make_pair(std::move(out), path.stats());
  };
  auto [a, sa] = run();
  auto [b, sb] = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_EQ(sa.payload_bitflips, sb.payload_bitflips);
  EXPECT_EQ(sa.header_mutations, sb.header_mutations);
  EXPECT_EQ(sa.truncations, sb.truncations);
  EXPECT_EQ(sa.extensions, sb.extensions);
  EXPECT_EQ(sa.blackholed, sb.blackholed);
  EXPECT_EQ(sa.replays, sb.replays);
  EXPECT_GT(sa.payload_bitflips + sa.truncations + sa.blackholed, 0u);
}

TEST(FaultyPath, DifferentSeedDifferentFaults) {
  FaultPlan plan;
  plan.payload_bitflip_rate = 0.5;
  auto flips_with_seed = [&](std::uint64_t seed) {
    plan.seed = seed;
    EventLoop loop;
    LoopbackPath inner;
    FaultyPath path(loop, inner, plan);
    auto out = drive(path, loop, 500);
    return out;
  };
  // Same frame count either way (bit-flips never drop), but which frames
  // got flipped differs.
  auto a = flips_with_seed(1);
  auto b = flips_with_seed(2);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultyPath, CertainFaultsFireOnEveryFrame) {
  FaultPlan plan;
  plan.payload_bitflip_rate = 1.0;
  plan.header_byte_rate = 1.0;
  plan.truncate_rate = 1.0;
  plan.extend_rate = 1.0;
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, plan);
  auto out = drive(path, loop, 50);
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(path.stats().payload_bitflips, 50u);
  EXPECT_EQ(path.stats().header_mutations, 50u);
  EXPECT_EQ(path.stats().truncations, 50u);
  EXPECT_EQ(path.stats().extensions, 50u);
  EXPECT_EQ(path.stats().frames_offered, 50u);
  EXPECT_EQ(path.stats().frames_seen, 50u);
}

TEST(FaultyPath, BlackholeSwallowsEverything) {
  FaultPlan plan;
  plan.blackhole_rate = 1.0;
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, plan);
  auto out = drive(path, loop, 30);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(path.stats().blackholed, 30u);
  EXPECT_EQ(path.stats().frames_delivered, 0u);
}

TEST(FaultyPath, OutageWindowsFollowTheClock) {
  FaultPlan plan;
  plan.outage_period = 100 * kMillisecond;
  plan.outage_duration = 30 * kMillisecond;
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, plan);
  int delivered = 0;
  path.set_handler([&](ConstBytes) { ++delivered; });

  ByteBuffer frame = ByteBuffer::from_string("probe");
  std::vector<std::pair<SimTime, bool>> expect_up = {
      {0, true},                    // start of period: up
      {69 * kMillisecond, true},    // just before the flap
      {70 * kMillisecond, false},   // flap begins at period - duration
      {99 * kMillisecond, false},   // still dark
      {100 * kMillisecond, true},   // next period: up again
      {175 * kMillisecond, false},  // dark again one period later
  };
  for (auto [when, up] : expect_up) {
    loop.schedule_at(when, [&, when, up] {
      EXPECT_EQ(!path.in_outage(), up) << "at t=" << when;
      path.send(frame.span());
    });
  }
  loop.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(path.stats().outage_dropped, 3u);
}

TEST(FaultyPath, ReplaysDeliverAnOldFrameAgain) {
  FaultPlan plan;
  plan.replay_rate = 1.0;
  plan.replay_delay = kMillisecond;
  plan.replay_history = 4;
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, plan);
  auto out = drive(path, loop, 10);
  EXPECT_EQ(path.stats().replays, 10u);
  EXPECT_EQ(out.size(), 20u);  // each frame once + one replay each
  EXPECT_EQ(path.stats().frames_delivered, 20u);
}

TEST(FaultyPath, ScheduledFramesArriveOnTime) {
  ByteBuffer planted = ByteBuffer::from_string("out of nowhere");
  FaultPlan plan;
  plan.scheduled_frames.emplace_back(5 * kMillisecond, ByteBuffer(planted.span()));
  plan.scheduled_frames.emplace_back(9 * kMillisecond, ByteBuffer(planted.span()));
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, plan);
  std::vector<std::pair<SimTime, ByteBuffer>> got;
  path.set_handler(
      [&](ConstBytes f) { got.emplace_back(loop.now(), ByteBuffer(f)); });
  loop.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 5 * kMillisecond);
  EXPECT_EQ(got[1].first, 9 * kMillisecond);
  EXPECT_EQ(got[0].second, planted);
  EXPECT_EQ(path.stats().scheduled_injected, 2u);
}

TEST(FaultyPath, AdversaryHookForgesFromObservedTraffic) {
  FaultPlan plan;
  plan.adversary_rate = 1.0;
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, plan);
  path.set_adversary([](ConstBytes observed, Rng& rng) {
    // Forge a frame derived from the observed one: same size, random body.
    ByteBuffer forged(observed.size());
    rng.fill(forged.span());
    return forged;
  });
  auto out = drive(path, loop, 25);
  EXPECT_EQ(path.stats().adversarial_injected, 25u);
  EXPECT_EQ(out.size(), 50u);  // original + forged per frame
}

TEST(FaultyPath, AdversaryMaySkip) {
  FaultPlan plan;
  plan.adversary_rate = 1.0;
  EventLoop loop;
  LoopbackPath inner;
  FaultyPath path(loop, inner, plan);
  path.set_adversary([](ConstBytes, Rng&) { return ByteBuffer(); });
  auto out = drive(path, loop, 10);
  EXPECT_EQ(path.stats().adversarial_injected, 0u);
  EXPECT_EQ(out.size(), 10u);
}

}  // namespace
}  // namespace ngp
