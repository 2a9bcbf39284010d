// Tests for src/transport: segment codec plus end-to-end stream transfers
// over the simulated network, including loss, reordering and duplication.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "netsim/net_path.h"
#include "transport/segment.h"
#include "transport/stream_receiver.h"
#include "transport/stream_sender.h"
#include "util/rng.h"

namespace ngp {
namespace {

// ---- Segment codec --------------------------------------------------------------

TEST(SegmentCodec, RoundTrip) {
  Segment s;
  s.type = SegmentType::kData;
  s.flags = kFlagFin;
  s.seq = 0x123456789ABCull;
  s.ack = 77;
  s.window = 65000;
  auto payload = ByteBuffer::from_string("payload bytes");
  s.payload = payload.span();

  ByteBuffer frame = encode_segment(s);
  EXPECT_EQ(frame.size(), Segment::kHeaderSize + payload.size());
  auto got = decode_segment(frame.span());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, SegmentType::kData);
  EXPECT_TRUE(got->fin());
  EXPECT_EQ(got->seq, s.seq);
  EXPECT_EQ(got->ack, 77u);
  EXPECT_EQ(got->window, 65000u);
  EXPECT_EQ(ByteBuffer(got->payload), payload);
}

TEST(SegmentCodec, EmptyPayloadOk) {
  Segment s;
  s.type = SegmentType::kAck;
  s.ack = 42;
  ByteBuffer frame = encode_segment(s);
  auto got = decode_segment(frame.span());
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->payload.empty());
}

TEST(SegmentCodec, DetectsHeaderCorruption) {
  Segment s;
  s.seq = 1000;
  ByteBuffer frame = encode_segment(s);
  for (std::size_t i = 0; i < Segment::kHeaderSize; ++i) {
    ByteBuffer bad(frame.span());
    bad[i] ^= 0x01;
    auto got = decode_segment(bad.span());
    // Either rejected outright or (for the type byte) decoded differently —
    // never silently equal.
    if (got.has_value()) {
      EXPECT_FALSE(got->seq == 1000 && got->type == SegmentType::kData &&
                   got->flags == 0 && got->ack == 0 && got->window == 0)
          << "undetected corruption at byte " << i;
    }
  }
}

TEST(SegmentCodec, DetectsPayloadCorruption) {
  Segment s;
  auto payload = ByteBuffer::from_string("sensitive");
  s.payload = payload.span();
  ByteBuffer frame = encode_segment(s);
  frame[Segment::kHeaderSize + 3] ^= 0x40;
  EXPECT_FALSE(decode_segment(frame.span()).has_value());
}

TEST(SegmentCodec, RejectsTruncation) {
  Segment s;
  auto payload = ByteBuffer::from_string("some payload");
  s.payload = payload.span();
  ByteBuffer frame = encode_segment(s);
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{10}, Segment::kHeaderSize - 1, frame.size() - 1}) {
    EXPECT_FALSE(decode_segment(frame.span().subspan(0, keep)).has_value()) << keep;
  }
}

TEST(SegmentCodec, RejectsUnknownType) {
  Segment s;
  ByteBuffer frame = encode_segment(s);
  frame[0] = 9;  // invalid type
  EXPECT_FALSE(decode_segment(frame.span()).has_value());
}

// ---- End-to-end stream harness -----------------------------------------------------

struct StreamPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data_path;
  LinkPath ack_path_tx;  // receiver's ack transmit path
  LinkPath ack_path_rx;  // sender's view of incoming acks
  StreamSender sender;
  StreamReceiver receiver;
  ByteBuffer received;

  explicit StreamPair(LinkConfig data_cfg, StreamSenderConfig scfg = {},
                      LinkConfig ack_cfg = {})
      : channel(loop, data_cfg, ack_cfg),
        data_path(channel.forward),
        ack_path_tx(channel.reverse),
        ack_path_rx(channel.reverse),
        sender(loop, data_path, ack_path_rx, scfg),
        receiver(loop, data_path, ack_path_tx) {
    // NOTE: sender registered its handler on ack_path_rx (reverse link);
    // receiver registered on data_path (forward link) — each link has one
    // handler, so construction order matters: receiver last on data.
    receiver.set_on_data([this](ConstBytes b) { received.append(b); });
  }
};

ByteBuffer pattern_bytes(std::size_t n, std::uint64_t seed = 1) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

LinkConfig clean_link() {
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = 2 * kMillisecond;
  cfg.queue_limit = 4096;
  return cfg;
}

TEST(StreamTransfer, SmallMessageArrives) {
  StreamPair p(clean_link());
  auto data = ByteBuffer::from_string("The quick brown fox");
  EXPECT_EQ(p.sender.send(data.span()), data.size());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_TRUE(p.sender.finished());
  EXPECT_TRUE(p.receiver.closed());
}

TEST(StreamTransfer, MultiSegmentTransferIntact) {
  StreamPair p(clean_link());
  ByteBuffer data = pattern_bytes(100'000, 2);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_GE(p.sender.stats().segments_sent, 100'000u / 1400 + 1);
  EXPECT_EQ(p.sender.stats().retransmits, 0u);
}

TEST(StreamTransfer, SurvivesHeavyLoss) {
  auto cfg = clean_link();
  cfg.seed = 3;
  StreamPair p(cfg);
  p.channel.forward.set_loss_rate(0.1);
  ByteBuffer data = pattern_bytes(200'000, 3);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_GT(p.sender.stats().retransmits, 0u);
}

TEST(StreamTransfer, SurvivesAckLoss) {
  auto cfg = clean_link();
  LinkConfig ack_cfg = clean_link();
  ack_cfg.seed = 4;
  StreamPair p(cfg, {}, ack_cfg);
  p.channel.reverse.set_loss_rate(0.2);
  ByteBuffer data = pattern_bytes(50'000, 4);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_TRUE(p.sender.finished());
}

TEST(StreamTransfer, SurvivesReordering) {
  auto cfg = clean_link();
  cfg.reorder_rate = 0.2;
  cfg.reorder_extra_delay = 8 * kMillisecond;
  cfg.seed = 5;
  StreamPair p(cfg);
  ByteBuffer data = pattern_bytes(150'000, 5);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_GT(p.receiver.stats().segments_out_of_order, 0u);
}

TEST(StreamTransfer, SurvivesDuplication) {
  auto cfg = clean_link();
  cfg.duplicate_rate = 0.2;
  cfg.seed = 6;
  StreamPair p(cfg);
  ByteBuffer data = pattern_bytes(60'000, 6);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_GT(p.receiver.stats().segments_duplicate, 0u);
}

TEST(StreamTransfer, SurvivesCombinedImpairments) {
  auto cfg = clean_link();
  cfg.seed = 7;
  cfg.reorder_rate = 0.05;
  cfg.duplicate_rate = 0.05;
  StreamPair p(cfg);
  p.channel.forward.set_loss_rate(0.05);
  ByteBuffer data = pattern_bytes(120'000, 7);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
}

TEST(StreamTransfer, FastRetransmitFiresUnderLoss) {
  auto cfg = clean_link();
  cfg.seed = 8;
  StreamPair p(cfg);
  p.channel.forward.set_loss_rate(0.03);
  ByteBuffer data = pattern_bytes(400'000, 8);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_GT(p.sender.stats().fast_retransmits, 0u);
  EXPECT_GT(p.sender.stats().dup_acks, 0u);
}

TEST(StreamTransfer, InOrderDeliveryAlways) {
  // The defining property (and §5 liability) of the stream transport:
  // bytes reach the app strictly in order even under chaos.
  auto cfg = clean_link();
  cfg.seed = 9;
  cfg.reorder_rate = 0.1;
  StreamPair p(cfg);
  p.channel.forward.set_loss_rate(0.05);

  // Stamp each 4-byte group with its own offset.
  ByteBuffer data(40'000);
  for (std::size_t i = 0; i + 4 <= data.size(); i += 4) {
    store_u32_be(data.data() + i, static_cast<std::uint32_t>(i));
  }
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  ASSERT_EQ(p.received.size(), data.size());
  for (std::size_t i = 0; i + 4 <= p.received.size(); i += 4) {
    ASSERT_EQ(load_u32_be(p.received.data() + i), i);
  }
}

TEST(StreamTransfer, SendBufferLimitIsHonoured) {
  StreamSenderConfig scfg;
  scfg.send_buffer_limit = 10'000;
  StreamPair p(clean_link(), scfg);
  ByteBuffer data = pattern_bytes(50'000, 10);
  const std::size_t accepted = p.sender.send(data.span());
  EXPECT_EQ(accepted, 10'000u);
}

TEST(StreamTransfer, RttEstimatorConverges) {
  auto cfg = clean_link();  // RTT = 2 * 2ms + serialization
  StreamPair p(cfg);
  ByteBuffer data = pattern_bytes(200'000, 11);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  // RTO should have adapted well below the 200ms initial value.
  EXPECT_LT(p.sender.current_rto(), 100 * kMillisecond);
  EXPECT_GE(p.sender.current_rto(), 10 * kMillisecond);  // the RTO floor
}

TEST(StreamTransfer, CongestionWindowGrows) {
  StreamPair p(clean_link());
  const double initial = p.sender.current_cwnd();
  ByteBuffer data = pattern_bytes(300'000, 12);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_GT(p.sender.current_cwnd(), initial);
}

TEST(StreamTransfer, EmptyStreamJustFin) {
  StreamPair p(clean_link());
  p.sender.close();
  p.loop.run();
  EXPECT_TRUE(p.sender.finished());
  EXPECT_TRUE(p.receiver.closed());
  EXPECT_TRUE(p.received.empty());
}

TEST(StreamTransfer, DelayedAckHalvesAckTraffic) {
  auto run = [](SimDuration delayed) {
    LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation_delay = 2 * kMillisecond;
    cfg.queue_limit = 4096;
    EventLoop loop;
    DuplexChannel ch(loop, cfg);
    LinkPath data(ch.forward), ack_tx(ch.reverse), ack_rx(ch.reverse);
    StreamSender sender(loop, data, ack_rx);
    StreamReceiverConfig rcfg;
    rcfg.delayed_ack = delayed;
    StreamReceiver receiver(loop, data, ack_tx, rcfg);
    ByteBuffer sink_buf;
    receiver.set_on_data([&](ConstBytes b) { sink_buf.append(b); });
    ByteBuffer file = pattern_bytes(200'000, 20);
    sender.send(file.span());
    sender.close();
    loop.run();
    EXPECT_EQ(sink_buf, file);
    return receiver.stats().acks_sent;
  };
  const auto immediate = run(0);
  const auto delayed = run(40 * kMillisecond);
  // Delayed ACKs cut the reverse traffic roughly in half on a clean path.
  EXPECT_LT(delayed, immediate * 3 / 4);
  EXPECT_GT(delayed, immediate / 4);
}

TEST(StreamTransfer, DelayedAckStillRecoversFromLoss) {
  auto cfg = clean_link();
  cfg.seed = 31;
  StreamReceiverConfig rcfg;
  rcfg.delayed_ack = 40 * kMillisecond;
  EventLoop loop;
  DuplexChannel ch(loop, cfg);
  ch.forward.set_loss_rate(0.05);
  LinkPath data(ch.forward), ack_tx(ch.reverse), ack_rx(ch.reverse);
  StreamSender sender(loop, data, ack_rx);
  StreamReceiver receiver(loop, data, ack_tx, rcfg);
  ByteBuffer got;
  receiver.set_on_data([&](ConstBytes b) { got.append(b); });
  ByteBuffer file = pattern_bytes(150'000, 21);
  sender.send(file.span());
  sender.close();
  loop.run();
  EXPECT_EQ(got, file);
  EXPECT_TRUE(sender.finished());
}

TEST(StreamTransfer, HeadOfLineBlockingObservable) {
  // With loss, the receiver's delivery callback goes quiet while data
  // queues out-of-order behind the hole — the stall ALF eliminates.
  auto cfg = clean_link();
  cfg.seed = 13;
  StreamPair p(cfg);
  p.channel.forward.set_loss_rate(0.05);
  ByteBuffer data = pattern_bytes(300'000, 13);
  p.sender.send(data.span());
  p.sender.close();
  p.loop.run();
  EXPECT_EQ(p.received, data);
  EXPECT_GT(p.receiver.stats().ooo_buffered_peak, 0u);
  EXPECT_GT(p.receiver.stats().segments_out_of_order, 0u);
}

// ---- Timers and teardown ----------------------------------------------------------

/// Black-hole NetPath: swallows every frame, stamping when it was sent, and
/// exposes the handler an endpoint registered on it.
class ProbePath final : public NetPath {
 public:
  explicit ProbePath(const EventLoop& loop) : loop_(loop) {}
  bool send(ConstBytes) override {
    sent_at.push_back(loop_.now());
    return true;
  }
  void set_handler(FrameHandler h) override { handler = std::move(h); }
  std::size_t max_frame_size() const override { return 1500; }

  FrameHandler handler;
  std::vector<SimTime> sent_at;

 private:
  const EventLoop& loop_;
};

TEST(StreamTimers, RtoBacksOffToTheTenSecondCeiling) {
  EventLoop loop;
  ProbePath data(loop), acks(loop);
  StreamSender sender(loop, data, acks);
  ByteBuffer bytes = pattern_bytes(100, 40);
  sender.send(bytes.span());
  loop.run_until(60 * kSecond);

  // 200 ms doubling per fire until the 10 s ceiling, then every 10 s.
  EXPECT_EQ(sender.stats().rto_fires, 10u);
  EXPECT_EQ(sender.current_rto(), 10 * kSecond);
  const std::vector<SimTime> want_ms = {0,    200,   600,   1400,  3000, 6200,
                                        12600, 22600, 32600, 42600, 52600};
  ASSERT_EQ(data.sent_at.size(), want_ms.size());
  for (std::size_t i = 0; i < want_ms.size(); ++i) {
    EXPECT_EQ(data.sent_at[i], want_ms[i] * kMillisecond) << "send " << i;
  }
}

TEST(StreamTeardown, SenderCancelsRtoAndClearsAckHandler) {
  EventLoop loop;
  ProbePath data(loop), acks(loop);
  auto sender = std::make_unique<StreamSender>(loop, data, acks);
  ByteBuffer bytes = pattern_bytes(100, 41);
  sender->send(bytes.span());
  ASSERT_EQ(loop.pending(), 1u);  // the RTO
  ASSERT_TRUE(acks.handler);

  sender.reset();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_FALSE(acks.handler);
}

TEST(StreamTeardown, ReceiverCancelsDelayedAckAndClearsDataHandler) {
  EventLoop loop;
  ProbePath data(loop), acks(loop);
  StreamReceiverConfig rcfg;
  rcfg.delayed_ack = 40 * kMillisecond;
  auto receiver = std::make_unique<StreamReceiver>(loop, data, acks, rcfg);
  ByteBuffer bytes = pattern_bytes(100, 42);
  Segment s;
  s.type = SegmentType::kData;
  s.payload = bytes.span();
  ASSERT_TRUE(data.handler);
  data.handler(encode_segment(s).span());
  ASSERT_EQ(loop.pending(), 1u);  // the delayed ACK
  ASSERT_TRUE(acks.sent_at.empty());

  receiver.reset();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_FALSE(data.handler);
}

}  // namespace
}  // namespace ngp
