// Tests for src/netsim: link timing, loss/reorder/duplication processes,
// queue behaviour, and the loss models.
#include <gtest/gtest.h>

#include <memory>

#include "netsim/byte_stream_link.h"
#include "netsim/link.h"
#include "netsim/net_path.h"
#include "util/event_loop.h"

namespace ngp {
namespace {

ByteBuffer frame_of(std::size_t n, std::uint8_t fill = 0x7E) {
  ByteBuffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = fill;
  return b;
}

TEST(LinkTest, DeliversFrameIntact) {
  EventLoop loop;
  LinkConfig cfg;
  Link link(loop, cfg);
  ByteBuffer received;
  link.set_handler([&](ConstBytes f) { received = ByteBuffer(f); });
  auto sent = ByteBuffer::from_string("hello network");
  ASSERT_TRUE(link.send(sent.span()));
  loop.run();
  EXPECT_EQ(received, sent);
  EXPECT_EQ(link.stats().frames_delivered, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, sent.size());
}

TEST(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.bandwidth_bps = 12e6;                  // 1500B -> 1ms
  cfg.propagation_delay = 5 * kMillisecond;
  Link link(loop, cfg);
  SimTime arrival = -1;
  link.set_handler([&](ConstBytes) { arrival = loop.now(); });
  auto f = frame_of(1500);
  link.send(f.span());
  loop.run();
  EXPECT_EQ(arrival, 6 * kMillisecond);
}

TEST(LinkTest, BackToBackFramesSerializeSequentially) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.bandwidth_bps = 12e6;
  cfg.propagation_delay = 0;
  Link link(loop, cfg);
  std::vector<SimTime> arrivals;
  link.set_handler([&](ConstBytes) { arrivals.push_back(loop.now()); });
  auto f = frame_of(1500);
  link.send(f.span());
  link.send(f.span());
  link.send(f.span());
  loop.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 1 * kMillisecond);
  EXPECT_EQ(arrivals[1], 2 * kMillisecond);
  EXPECT_EQ(arrivals[2], 3 * kMillisecond);
}

TEST(LinkTest, OversizeFrameRejected) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.mtu = 100;
  Link link(loop, cfg);
  auto f = frame_of(101);
  EXPECT_FALSE(link.send(f.span()));
  EXPECT_EQ(link.stats().dropped_oversize, 1u);
  loop.run();
  EXPECT_EQ(link.stats().frames_delivered, 0u);
}

TEST(LinkTest, QueueLimitDropsTail) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.queue_limit = 4;
  cfg.bandwidth_bps = 1e6;  // slow: everything queues
  Link link(loop, cfg);
  link.set_handler([](ConstBytes) {});
  auto f = frame_of(1000);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += link.send(f.span()) ? 1 : 0;
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(link.stats().dropped_queue, 6u);
  loop.run();
  EXPECT_EQ(link.stats().frames_delivered, 4u);
}

TEST(LinkTest, BernoulliLossRateObserved) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.queue_limit = 100000;
  cfg.seed = 99;
  Link link(loop, cfg);
  link.set_loss_rate(0.2);
  int delivered = 0;
  link.set_handler([&](ConstBytes) { ++delivered; });
  auto f = frame_of(100);
  const int n = 5000;
  for (int i = 0; i < n; ++i) link.send(f.span());
  loop.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.8, 0.03);
  EXPECT_EQ(link.stats().dropped_loss + link.stats().frames_delivered,
            static_cast<std::uint64_t>(n));
}

TEST(LinkTest, ZeroLossDeliversEverything) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.queue_limit = 10000;
  Link link(loop, cfg);
  int delivered = 0;
  link.set_handler([&](ConstBytes) { ++delivered; });
  auto f = frame_of(64);
  for (int i = 0; i < 1000; ++i) link.send(f.span());
  loop.run();
  EXPECT_EQ(delivered, 1000);
}

TEST(LinkTest, DuplicationDeliversExtraCopies) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.duplicate_rate = 0.5;
  cfg.queue_limit = 10000;
  cfg.seed = 7;
  Link link(loop, cfg);
  int delivered = 0;
  link.set_handler([&](ConstBytes) { ++delivered; });
  auto f = frame_of(64);
  const int n = 2000;
  for (int i = 0; i < n; ++i) link.send(f.span());
  loop.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 1.5, 0.05);
  EXPECT_EQ(link.stats().duplicated,
            static_cast<std::uint64_t>(delivered - n));
}

TEST(LinkTest, ReorderingObservableViaSequenceTags) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.reorder_rate = 0.3;
  cfg.reorder_extra_delay = 10 * kMillisecond;
  cfg.queue_limit = 10000;
  cfg.bandwidth_bps = 1e9;
  cfg.seed = 11;
  Link link(loop, cfg);
  std::vector<std::uint32_t> order;
  link.set_handler([&](ConstBytes f) { order.push_back(load_u32_be(f.data())); });
  for (std::uint32_t i = 0; i < 500; ++i) {
    ByteBuffer f(64);
    store_u32_be(f.data(), i);
    link.send(f.span());
  }
  loop.run();
  ASSERT_EQ(order.size(), 500u);
  int inversions = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 10);
  EXPECT_GT(link.stats().reordered, 50u);
}

TEST(LinkTest, DeterministicForSameSeed) {
  auto run_once = [] {
    EventLoop loop;
    LinkConfig cfg;
    cfg.seed = 1234;
    cfg.queue_limit = 10000;
    Link link(loop, cfg);
    link.set_loss_rate(0.3);
    std::vector<SimTime> arrivals;
    link.set_handler([&](ConstBytes) { arrivals.push_back(loop.now()); });
    auto f = frame_of(200);
    for (int i = 0; i < 300; ++i) link.send(f.span());
    loop.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(LinkPathTest, AdapterForwards) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.mtu = 500;
  Link link(loop, cfg);
  LinkPath path(link);
  EXPECT_EQ(path.max_frame_size(), 500u);
  int got = 0;
  path.set_handler([&](ConstBytes) { ++got; });
  auto f = frame_of(100);
  EXPECT_TRUE(path.send(f.span()));
  loop.run();
  EXPECT_EQ(got, 1);
}

TEST(DuplexChannelTest, IndependentDirections) {
  EventLoop loop;
  LinkConfig cfg;
  DuplexChannel ch(loop, cfg);
  int fwd = 0, rev = 0;
  ch.forward.set_handler([&](ConstBytes) { ++fwd; });
  ch.reverse.set_handler([&](ConstBytes) { ++rev; });
  auto f = frame_of(10);
  ch.forward.send(f.span());
  ch.forward.send(f.span());
  ch.reverse.send(f.span());
  loop.run();
  EXPECT_EQ(fwd, 2);
  EXPECT_EQ(rev, 1);
}

// ---- Loss models ---------------------------------------------------------------

TEST(LossModels, NoLossNeverDrops) {
  Rng rng(1);
  NoLoss m;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(m.drop(rng));
}

TEST(LossModels, BernoulliMatchesRate) {
  Rng rng(2);
  BernoulliLoss m(0.25);
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) drops += m.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.25, 0.02);
}

TEST(LossModels, GilbertElliottSteadyState) {
  Rng rng(3);
  GilbertElliottLoss m(0.01, 0.1, 0.001, 0.5);
  const double expect = m.steady_state_loss();
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) drops += m.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, expect, 0.01);
}

TEST(LossModels, GilbertElliottSteadyStateConvergesAtScale) {
  // At 1M trials the empirical rate must sit well inside the 200k-trial
  // tolerance above: the analytic steady_state_loss() is the true mean of
  // the chain, not just an approximation.
  Rng rng(7);
  GilbertElliottLoss m(0.02, 0.25, 0.002, 0.4);
  const double expect = m.steady_state_loss();
  std::uint64_t drops = 0;
  const int n = 1'000'000;
  for (int i = 0; i < n; ++i) drops += m.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, expect, 0.003);
}

TEST(LossModels, GilbertElliottIsBursty) {
  // Compare run-length of losses against Bernoulli at the same average
  // rate: GE must produce longer loss bursts.
  auto max_burst = [](LossModel& m, Rng rng) {
    int burst = 0, max_b = 0;
    for (int i = 0; i < 100000; ++i) {
      if (m.drop(rng)) {
        max_b = std::max(max_b, ++burst);
      } else {
        burst = 0;
      }
    }
    return max_b;
  };
  GilbertElliottLoss ge(0.002, 0.2, 0.0, 0.9);
  BernoulliLoss be(ge.steady_state_loss());
  EXPECT_GT(max_burst(ge, Rng(4)), max_burst(be, Rng(4)));
}

}  // namespace
// ---- Teardown with frames in flight ----------------------------------------

TEST(LinkTeardown, DestroyedWithFramesInFlightCancelsTheirEvents) {
  // Each accepted frame leaves a queue-slot event and a delivery event (a
  // duplicate, a second delivery) that close over the link. Destroying the
  // link cancels them, so running the loop on never touches freed memory.
  EventLoop loop;
  int delivered = 0;
  {
    LinkConfig cfg;
    cfg.duplicate_rate = 1.0;
    auto link = std::make_unique<Link>(loop, cfg);
    link->set_handler([&](ConstBytes) { ++delivered; });
    const ByteBuffer frame(200);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(link->send(frame.span()));
    EXPECT_EQ(loop.pending(), 12u);
  }
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(delivered, 0);
}

TEST(ByteStreamTeardown, DestroyedWithBytesInFlightCancelsTheirEvents) {
  // The pump and every chunk delivery close over the pipe: destroying it
  // mid-transfer cancels them.
  EventLoop loop;
  std::size_t read = 0;
  {
    auto pipe = std::make_unique<ByteStreamLink>(loop, ByteStreamConfig{});
    pipe->set_reader([&](ConstBytes chunk) { read += chunk.size(); });
    const ByteBuffer bytes(4096);
    ASSERT_EQ(pipe->write(bytes.span()), bytes.size());
    loop.run_until(loop.now() + 10 * kMicrosecond);  // some chunks in flight
    EXPECT_GT(loop.pending(), 0u);
  }
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(read, 0u);
}

}  // namespace ngp
