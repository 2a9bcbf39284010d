// Tests for src/netsim/relay: store-and-forward behaviour, emergent
// congestion loss, and transports running over multi-hop paths.
#include <gtest/gtest.h>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "netsim/relay.h"
#include "transport/stream_receiver.h"
#include "transport/stream_sender.h"
#include "util/rng.h"

namespace ngp {
namespace {

LinkConfig hop(double bps, SimDuration delay, std::size_t queue = 128,
               std::uint64_t seed = 1) {
  LinkConfig cfg;
  cfg.bandwidth_bps = bps;
  cfg.propagation_delay = delay;
  cfg.queue_limit = queue;
  cfg.seed = seed;
  return cfg;
}

TEST(Relay, TeardownClearsItsIngressHandler) {
  // The relay's handler on the ingress link closes over the relay: after
  // teardown a frame the ingress delivers must not reach the freed relay
  // (nor, through it, the egress link).
  EventLoop loop;
  Link a(loop, hop(100e6, kMillisecond));
  Link b(loop, hop(100e6, kMillisecond));
  int got = 0;
  b.set_handler([&](ConstBytes) { ++got; });
  const ByteBuffer frame(100);
  {
    Relay relay(a, b);
    a.send(frame.span());
    loop.run();
    EXPECT_EQ(got, 1);
  }
  a.send(frame.span());
  loop.run();
  EXPECT_EQ(a.stats().frames_delivered, 2u);
  EXPECT_EQ(b.stats().frames_offered, 1u);
  EXPECT_EQ(got, 1);
}

TEST(Relay, ForwardsFramesIntact) {
  EventLoop loop;
  Link a(loop, hop(100e6, kMillisecond));
  Link b(loop, hop(100e6, kMillisecond));
  Relay relay(a, b);
  ByteBuffer got;
  b.set_handler([&](ConstBytes f) { got = ByteBuffer(f); });
  auto sent = ByteBuffer::from_string("via relay");
  a.send(sent.span());
  loop.run();
  EXPECT_EQ(got, sent);
  EXPECT_EQ(relay.stats().frames_forwarded, 1u);
}

TEST(MultiHop, EndToEndLatencyIsSumOfHops) {
  EventLoop loop;
  // Three hops, each 1 ms propagation and 1 ms serialization for 1500 B at
  // 12 Mb/s -> 6 ms total.
  std::vector<LinkConfig> hops(3, hop(12e6, kMillisecond));
  MultiHopPath path(loop, hops);
  SimTime arrival = -1;
  path.set_handler([&](ConstBytes) { arrival = loop.now(); });
  ByteBuffer frame(1500);
  path.send(frame.span());
  loop.run();
  EXPECT_EQ(arrival, 6 * kMillisecond);
  EXPECT_EQ(path.hop_count(), 3u);
}

TEST(MultiHop, MtuIsPathMinimum) {
  EventLoop loop;
  std::vector<LinkConfig> hops(3, hop(10e6, kMillisecond));
  hops[1].mtu = 576;
  MultiHopPath path(loop, hops);
  EXPECT_EQ(path.max_frame_size(), 576u);
}

TEST(MultiHop, BottleneckCausesCongestionDrops) {
  EventLoop loop;
  // Fast ingress feeding a slow second hop with a tiny queue: overload
  // must surface as relay congestion drops, not random loss.
  std::vector<LinkConfig> hops{hop(100e6, kMillisecond, 1 << 16),
                               hop(5e6, kMillisecond, 8)};
  MultiHopPath path(loop, hops);
  int delivered = 0;
  path.set_handler([&](ConstBytes) { ++delivered; });
  ByteBuffer frame(1400);
  for (int i = 0; i < 200; ++i) path.send(frame.span());
  loop.run();
  EXPECT_GT(path.total_congestion_drops(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + path.total_congestion_drops(), 200u);
}

TEST(MultiHop, StreamTransportRecoversFromCongestion) {
  EventLoop loop;
  // Data path: 2 hops with a bottleneck; ACK path: single clean link.
  std::vector<LinkConfig> data_hops{hop(50e6, kMillisecond, 1 << 16, 2),
                                    hop(10e6, kMillisecond, 16, 3)};
  MultiHopPath data(loop, data_hops);
  Link ack_link(loop, hop(50e6, kMillisecond));
  LinkPath ack_tx(ack_link), ack_rx(ack_link);

  StreamSender sender(loop, data, ack_rx);
  StreamReceiver receiver(loop, data, ack_tx);
  ByteBuffer received;
  receiver.set_on_data([&](ConstBytes b) { received.append(b); });

  ByteBuffer file(300'000);
  Rng rng(4);
  rng.fill(file.span());
  std::size_t off = 0;
  std::function<void()> feed = [&] {
    off += sender.send(file.subspan(off, 64 * 1024));
    if (off < file.size()) {
      loop.schedule_after(kMillisecond, feed);
    } else {
      sender.close();
    }
  };
  feed();
  loop.run();
  EXPECT_EQ(received, file);  // congestion losses recovered end to end
}

TEST(MultiHop, AlfTransportWorksAcrossThreeHops) {
  EventLoop loop;
  std::vector<LinkConfig> data_hops{hop(50e6, kMillisecond, 1 << 16, 5),
                                    hop(40e6, 2 * kMillisecond, 1 << 16, 6),
                                    hop(50e6, kMillisecond, 1 << 16, 7)};
  data_hops[1].seed = 6;
  MultiHopPath data(loop, data_hops);
  data.hop(1).set_loss_rate(0.05);  // loss at the middle hop
  Link fb(loop, hop(50e6, kMillisecond));
  LinkPath fb_tx(fb), fb_rx(fb);

  alf::SessionConfig scfg;
  scfg.nack_delay = 15 * kMillisecond;
  alf::AlfSender sender(loop, data, fb_rx, scfg);
  alf::AlfReceiver receiver(loop, data, fb_tx, scfg);
  std::vector<Adu> delivered;
  receiver.set_on_adu([&](Adu&& a) { delivered.push_back(std::move(a)); });

  Rng rng(8);
  std::map<std::uint64_t, ByteBuffer> source;
  for (std::uint64_t i = 0; i < 25; ++i) {
    ByteBuffer b(5000);
    rng.fill(b.span());
    source.emplace(i, std::move(b));
    ASSERT_TRUE(sender.send_adu(generic_name(i), source.at(i).span()).ok());
  }
  sender.finish();
  loop.run();
  ASSERT_EQ(delivered.size(), 25u);
  for (const auto& adu : delivered) EXPECT_EQ(adu.payload, source.at(adu.name.a));
}

}  // namespace
}  // namespace ngp
