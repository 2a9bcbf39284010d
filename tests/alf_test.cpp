// End-to-end tests for the ALF transport (src/alf/sender + receiver):
// out-of-order ADU delivery, the three retransmit policies, encryption,
// pacing, loss reporting in application terms, and the sender's one
// staging path (every entry prepares in place).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "buf/pool.h"
#include "netsim/cell_link.h"
#include "netsim/net_path.h"
#include "obs/metrics.h"
#include "presentation/plan.h"
#include "test_paths.h"
#include "util/rng.h"

namespace ngp::alf {
namespace {

LinkConfig fast_link() {
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = 2 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  return cfg;
}

/// Harness wiring an AlfSender and AlfReceiver over a duplex channel.
struct AlfPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data_path;
  LinkPath feedback_tx;
  LinkPath feedback_rx;
  AlfSender sender;
  AlfReceiver receiver;

  std::vector<Adu> delivered;
  std::vector<std::pair<std::uint32_t, AduName>> lost;
  bool completed = false;

  AlfPair(SessionConfig scfg, LinkConfig data_cfg, LinkConfig fb_cfg)
      : channel(loop, data_cfg, fb_cfg),
        data_path(channel.forward),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse),
        sender(loop, data_path, feedback_rx, scfg),
        receiver(loop, data_path, feedback_tx, scfg) {
    receiver.set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
    receiver.set_on_adu_lost([this](std::uint32_t id, const AduName& n, bool) {
      lost.emplace_back(id, n);
    });
    receiver.set_on_complete([this] { completed = true; });
  }

  explicit AlfPair(SessionConfig scfg) : AlfPair(scfg, fast_link(), fast_link()) {}
};

ByteBuffer payload_of(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

TEST(AlfTransfer, SingleAduArrives) {
  AlfPair p(SessionConfig{});
  auto data = payload_of(5000, 1);
  auto id = p.sender.send_adu(generic_name(1), data.span());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
  EXPECT_EQ(p.delivered[0].name, generic_name(1));
  EXPECT_TRUE(p.completed);
  EXPECT_TRUE(p.lost.empty());
}

TEST(AlfTransfer, ManyAdusAllArriveLossless) {
  AlfPair p(SessionConfig{});
  std::map<std::uint64_t, ByteBuffer> sent;
  for (std::uint64_t i = 0; i < 50; ++i) {
    auto data = payload_of(3000 + static_cast<std::size_t>(i) * 17, 100 + i);
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
    sent.emplace(i, std::move(data));
  }
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 50u);
  for (const auto& adu : p.delivered) {
    EXPECT_EQ(adu.payload, sent.at(adu.name.a));
  }
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(p.receiver.stats().adus_checksum_failed, 0u);
}

TEST(AlfTransfer, MultiFragmentAduReassembled) {
  AlfPair p(SessionConfig{});
  auto data = payload_of(20'000, 2);  // ~14 fragments at 1500 MTU
  ASSERT_TRUE(p.sender.send_adu(generic_name(9), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
  EXPECT_GT(p.sender.stats().fragments_sent, 10u);
}

TEST(AlfTransfer, EmptyAduRejected) {
  AlfPair p(SessionConfig{});
  EXPECT_FALSE(p.sender.send_adu(generic_name(0), ConstBytes{}).ok());
}

TEST(AlfTransfer, SendAfterFinishRejected) {
  AlfPair p(SessionConfig{});
  auto data = payload_of(100, 3);
  p.sender.finish();
  auto r = p.sender.send_adu(generic_name(1), data.span());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kClosed);
}

TEST(AlfTransfer, OutOfOrderDeliveryUnderLoss) {
  // The headline ALF property: ADU k+1 reaches the application while ADU k
  // is still being recovered.
  SessionConfig scfg;
  scfg.nack_delay = 10 * kMillisecond;
  AlfPair p(scfg);
  p.channel.forward.set_loss_rate(0.15);

  for (std::uint64_t i = 0; i < 100; ++i) {
    auto data = payload_of(4000, 200 + i);
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
  }
  p.sender.finish();
  p.loop.run();

  EXPECT_EQ(p.delivered.size(), 100u);
  EXPECT_TRUE(p.completed);
  EXPECT_GT(p.receiver.stats().adus_delivered_out_of_order, 0u);
  EXPECT_GT(p.sender.stats().adus_retransmitted, 0u);
  // Delivery order differs from send order.
  bool monotone = true;
  for (std::size_t i = 1; i < p.delivered.size(); ++i) {
    if (p.delivered[i].name.a < p.delivered[i - 1].name.a) monotone = false;
  }
  EXPECT_FALSE(monotone);
}

TEST(AlfTransfer, AllPayloadsIntactUnderLoss) {
  SessionConfig scfg;
  AlfPair p(scfg);
  p.channel.forward.set_loss_rate(0.1);
  std::map<std::uint64_t, ByteBuffer> sent;
  for (std::uint64_t i = 0; i < 60; ++i) {
    auto data = payload_of(2500, 300 + i);
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
    sent.emplace(i, std::move(data));
  }
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 60u);
  for (const auto& adu : p.delivered) EXPECT_EQ(adu.payload, sent.at(adu.name.a));
}

TEST(AlfTransfer, RecomputePolicyInvokesApplication) {
  SessionConfig scfg;
  scfg.retransmit = RetransmitPolicy::kApplicationRecompute;
  AlfPair p(scfg);
  p.channel.forward.set_loss_rate(0.2);

  // The application can regenerate any ADU from its name.
  std::map<std::uint64_t, ByteBuffer> source;
  for (std::uint64_t i = 0; i < 30; ++i) source.emplace(i, payload_of(3000, 400 + i));
  int recompute_calls = 0;
  p.sender.set_recompute([&](std::uint32_t, const AduName& name) {
    ++recompute_calls;
    return std::optional<ByteBuffer>(ByteBuffer(source.at(name.a).span()));
  });

  for (std::uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), source.at(i).span()).ok());
  }
  p.sender.finish();
  p.loop.run();

  EXPECT_EQ(p.delivered.size(), 30u);
  EXPECT_GT(recompute_calls, 0);
  EXPECT_EQ(p.sender.stats().adus_recomputed,
            static_cast<std::uint64_t>(recompute_calls));
  // With recompute, the transport holds no long-lived copies.
  EXPECT_EQ(p.sender.stats().retransmit_buffer_bytes, 0u);
  for (const auto& adu : p.delivered) EXPECT_EQ(adu.payload, source.at(adu.name.a));
}

TEST(AlfTransfer, RecomputeDeclinedCountsIgnored) {
  SessionConfig scfg;
  scfg.retransmit = RetransmitPolicy::kApplicationRecompute;
  scfg.max_nacks = 3;
  scfg.nack_delay = 5 * kMillisecond;
  scfg.nack_retry = 10 * kMillisecond;
  AlfPair p(scfg);
  p.channel.forward.set_loss_rate(0.3);
  p.sender.set_recompute(
      [](std::uint32_t, const AduName&) { return std::optional<ByteBuffer>{}; });
  for (std::uint64_t i = 0; i < 20; ++i) {
    auto data = payload_of(3000, 500 + i);
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
  }
  p.sender.finish();
  p.loop.run();
  // Some ADUs were lost and never recovered; receiver abandoned them and
  // still completed.
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(p.delivered.size() + p.lost.size(), 20u);
  if (!p.lost.empty()) {
    EXPECT_GT(p.sender.stats().nacks_ignored, 0u);
  }
}

TEST(AlfTransfer, PolicyNoneNeverRetransmits) {
  SessionConfig scfg;
  scfg.retransmit = RetransmitPolicy::kNone;
  AlfPair p(scfg);
  p.channel.forward.set_loss_rate(0.2);
  for (std::uint64_t i = 0; i < 50; ++i) {
    auto data = payload_of(1200, 600 + i);  // single-fragment ADUs
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
  }
  p.sender.finish();
  p.loop.run();
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(p.sender.stats().adus_retransmitted, 0u);
  EXPECT_EQ(p.receiver.stats().nacks_sent, 0u);
  EXPECT_EQ(p.delivered.size() + p.lost.size(), 50u);
  EXPECT_GT(p.lost.size(), 0u);  // 0.2 loss over 50 ADUs: some must die
  // Losses are reported with the application's names.
  for (const auto& [id, name] : p.lost) EXPECT_EQ(name.ns, NameSpace::kGeneric);
}

TEST(AlfTransfer, EncryptedSessionRoundTrips) {
  for (ProcessMode mode : {ProcessMode::kIntegrated, ProcessMode::kLayered}) {
    SessionConfig scfg;
    scfg.encrypt = true;
    scfg.process_mode = mode;
    for (int i = 0; i < 32; ++i) scfg.key.key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    AlfPair p(scfg);
    auto data = payload_of(10'000, 7);
    ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
    p.sender.finish();
    p.loop.run();
    ASSERT_EQ(p.delivered.size(), 1u) << "mode=" << static_cast<int>(mode);
    EXPECT_EQ(p.delivered[0].payload, data);
  }
}

TEST(AlfTransfer, EncryptedBytesDifferOnTheWire) {
  SessionConfig scfg;
  scfg.encrypt = true;
  scfg.key.key[0] = 0xAA;
  EventLoop loop;
  DuplexChannel ch(loop, fast_link());
  LinkPath data(ch.forward), fb(ch.reverse);
  AlfSender sender(loop, data, fb, scfg);

  ByteBuffer wire_copy;
  ch.forward.set_handler([&](ConstBytes f) { wire_copy = ByteBuffer(f); });
  auto plain = payload_of(500, 8);
  ASSERT_TRUE(sender.send_adu(generic_name(1), plain.span()).ok());
  loop.run();
  ASSERT_GE(wire_copy.size(), DataFragment::kHeaderSize + 500);
  ConstBytes wire_payload = wire_copy.span().subspan(DataFragment::kHeaderSize);
  EXPECT_NE(ByteBuffer(wire_payload), plain);
}

TEST(AlfTransfer, ChecksumKindsAllWork) {
  for (ChecksumKind kind : {ChecksumKind::kInternet, ChecksumKind::kFletcher32,
                            ChecksumKind::kAdler32, ChecksumKind::kCrc32}) {
    SessionConfig scfg;
    scfg.checksum = kind;
    AlfPair p(scfg);
    auto data = payload_of(6000, 9);
    ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
    p.sender.finish();
    p.loop.run();
    ASSERT_EQ(p.delivered.size(), 1u) << checksum_kind_name(kind);
    EXPECT_EQ(p.delivered[0].payload, data);
  }
}

/// NetPath decorator that can corrupt delivered payload bytes — models
/// in-flight damage the link-level checks miss.
class TamperPath final : public NetPath {
 public:
  explicit TamperPath(NetPath& inner) : inner_(inner) {}

  bool send(ConstBytes frame) override { return inner_.send(frame); }
  std::size_t max_frame_size() const override { return inner_.max_frame_size(); }

  void set_handler(FrameHandler handler) override {
    handler_ = std::move(handler);
    inner_.set_handler([this](ConstBytes f) {
      ByteBuffer frame(f);
      if (corrupt_remaining_ > 0 && frame.size() > DataFragment::kHeaderSize) {
        --corrupt_remaining_;
        frame[DataFragment::kHeaderSize + 1] ^= 0x80;  // payload bit flip
      }
      if (handler_) handler_(frame.span());
    });
  }

  void corrupt_next(int n) { corrupt_remaining_ = n; }

 private:
  NetPath& inner_;
  FrameHandler handler_;
  int corrupt_remaining_ = 0;
};

TEST(AlfTransfer, CorruptedAduCaughtAndRecovered) {
  // Corrupt one fragment's payload in flight: the header checksum passes,
  // so stage 1 accepts the fragment — the per-ADU checksum (stage 2) must
  // catch the damage and NACK recovery must refetch the whole ADU.
  SessionConfig scfg;
  scfg.nack_delay = 10 * kMillisecond;
  EventLoop loop;
  DuplexChannel ch(loop, fast_link());
  LinkPath raw_data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);
  TamperPath data_path(raw_data);
  data_path.corrupt_next(1);

  AlfSender sender(loop, data_path, fb_rx, scfg);
  AlfReceiver receiver(loop, data_path, fb_tx, scfg);
  std::vector<Adu> delivered;
  receiver.set_on_adu([&](Adu&& a) { delivered.push_back(std::move(a)); });

  auto data = payload_of(2000, 21);
  ASSERT_TRUE(sender.send_adu(generic_name(1), data.span()).ok());
  sender.finish();
  loop.run();

  EXPECT_EQ(receiver.stats().adus_checksum_failed, 1u);
  EXPECT_GE(sender.stats().adus_retransmitted, 1u);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, data);
}

TEST(AlfTransfer, PacingSpreadsTransmissions) {
  SessionConfig scfg;
  scfg.pace_bps = 10e6;  // well below the 100 Mb/s link
  AlfPair p(scfg);
  auto data = payload_of(125'000, 10);  // 0.1s at 10 Mb/s
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  // Transfer time must be governed by pacing, not the link.
  EXPECT_GT(p.loop.now(), 90 * kMillisecond);
}

TEST(AlfTransfer, ProgressReportsFlow) {
  SessionConfig scfg;
  scfg.progress_interval = 10 * kMillisecond;
  scfg.pace_bps = 20e6;
  AlfPair p(scfg);
  for (std::uint64_t i = 0; i < 20; ++i) {
    auto data = payload_of(10'000, 700 + i);
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
  }
  p.sender.finish();
  p.loop.run();
  EXPECT_GT(p.receiver.stats().progress_sent, 3u);
  EXPECT_GT(p.sender.stats().progress_received, 0u);
}

TEST(AlfTransfer, DoneLossRecoveredViaProgress) {
  // Drop the first DONE; the sender must re-emit on later PROGRESS.
  SessionConfig scfg;
  scfg.progress_interval = 10 * kMillisecond;
  AlfPair p(scfg);

  // Loss model that kills exactly one frame: the DONE (it is the last
  // DATA-direction frame of this lossless run).
  class DropOne final : public LossModel {
   public:
    explicit DropOne(std::uint64_t nth) : nth_(nth) {}
    bool drop(Rng&) override { return ++count_ == nth_; }

   private:
    std::uint64_t nth_, count_ = 0;
  };
  auto data = payload_of(2000, 11);
  // Frames: 2 fragments (2000 bytes at 1448 cap) + 1 DONE = 3rd frame.
  p.channel.forward.set_loss_model(std::make_unique<DropOne>(3));
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  EXPECT_TRUE(p.completed);
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
}

TEST(AlfTransfer, TransportBufferLimitEnforced) {
  SessionConfig scfg;
  scfg.retransmit_buffer_limit = 10'000;
  AlfPair p(scfg);
  auto big = payload_of(9'000, 12);
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), big.span()).ok());
  auto r = p.sender.send_adu(generic_name(2), big.span());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kLimitExceeded);
}

TEST(AlfTransfer, ReleaseAduFreesBufferSpace) {
  SessionConfig scfg;
  scfg.retransmit_buffer_limit = 10'000;
  AlfPair p(scfg);
  auto big = payload_of(9'000, 13);
  auto id = p.sender.send_adu(generic_name(1), big.span());
  ASSERT_TRUE(id.ok());
  // Let the fragments drain. The receiver's maintenance timers re-arm until
  // the session completes, so bound the run instead of draining the queue.
  p.loop.run_until(kSecond);
  p.sender.release_adu(*id);
  EXPECT_TRUE(p.sender.send_adu(generic_name(2), big.span()).ok());
}

TEST(AlfTransfer, WorksOverAtmCells) {
  // The same endpoints, unmodified, over the ATM cell path (§5: the ADU
  // decouples the architecture from the transmission unit).
  SessionConfig scfg;
  EventLoop loop;
  LinkConfig cell_cfg;
  cell_cfg.bandwidth_bps = 150e6;
  cell_cfg.propagation_delay = kMillisecond;
  cell_cfg.queue_limit = 1 << 18;
  CellLink cells(loop, cell_cfg);
  LinkConfig fb_cfg = fast_link();
  Link fb_link(loop, fb_cfg);
  LinkPath fb_tx(fb_link), fb_rx(fb_link);

  AlfSender sender(loop, cells, fb_rx, scfg);
  AlfReceiver receiver(loop, cells, fb_tx, scfg);
  std::vector<Adu> delivered;
  receiver.set_on_adu([&](Adu&& a) { delivered.push_back(std::move(a)); });

  auto data = payload_of(30'000, 14);
  ASSERT_TRUE(sender.send_adu(generic_name(1), data.span()).ok());
  sender.finish();
  loop.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, data);
  EXPECT_GT(cells.stats().cells_sent, 100u);
}

// ---- Sender transmit-queue regression tests ---------------------------------------

/// Lossless in-memory path capturing every offered frame; deliver() injects
/// a frame into the registered handler (for driving the feedback channel
/// synchronously, without a simulated link in between).
class CapturePath final : public NetPath {
 public:
  bool send(ConstBytes frame) override {
    frames.emplace_back(frame);
    return true;
  }
  void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  std::size_t max_frame_size() const override { return 1500; }
  void deliver(ConstBytes frame) { handler_(frame); }

  std::vector<ByteBuffer> frames;

 private:
  FrameHandler handler_;
};

SessionConfig buffered_paced_config() {
  SessionConfig scfg;
  scfg.retransmit = RetransmitPolicy::kTransportBuffered;
  scfg.pace_bps = 1e6;  // paced: fragments queue instead of draining inline
  scfg.retransmit_buffer_limit = std::size_t{1} << 30;
  return scfg;
}

TEST(AlfSenderQueue, RetransmitBatchJumpsBacklogInOrder) {
  EventLoop loop;
  CapturePath out, feedback;
  SessionConfig scfg = buffered_paced_config();
  AlfSender sender(loop, out, feedback, scfg);
  const std::size_t cap = fragment_payload_capacity(out.max_frame_size());

  // ADU 1 fully transmitted (and retained for retransmission)...
  auto a = payload_of(cap * 10, 21);
  ASSERT_TRUE(sender.send_adu(generic_name(1), a.span()).ok());
  loop.run();
  // ...then ADU 2 builds a paced backlog nobody is waiting on yet.
  auto b = payload_of(cap * 40, 22);
  ASSERT_TRUE(sender.send_adu(generic_name(2), b.span()).ok());
  const std::size_t sent_before = out.frames.size();

  NackMessage m;
  m.session = scfg.session_id;
  m.adu_ids.push_back(1);
  ByteBuffer nack = encode_nack(m);
  feedback.deliver(nack.span());
  loop.run();

  // The retransmitted batch must jump the queue: ADU 1's ten fragments, in
  // offset order, ahead of every remaining ADU 2 fragment.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  for (std::size_t i = sent_before; i < out.frames.size(); ++i) {
    auto msg = decode_message(out.frames[i].span());
    ASSERT_TRUE(msg.has_value());
    if (msg->type != MessageType::kData) continue;
    order.emplace_back(msg->data.adu_id, msg->data.frag_off);
  }
  ASSERT_GE(order.size(), 50u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i].first, 1u) << i;
    EXPECT_EQ(order[i].second, i * cap) << i;
  }
  for (std::size_t i = 10; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, 2u) << i;
  }
  EXPECT_EQ(sender.stats().adus_retransmitted, 1u);
}

TEST(AlfSenderQueue, FrontRequeueOfLargeBatchStaysLinear) {
  EventLoop loop;
  CapturePath out, feedback;
  SessionConfig scfg = buffered_paced_config();
  AlfSender sender(loop, out, feedback, scfg);
  const std::size_t cap = fragment_payload_capacity(out.max_frame_size());

  // ADU 1: ~8000 fragments, fully transmitted then retained.
  auto a = payload_of(cap * 8000, 23);
  ASSERT_TRUE(sender.send_adu(generic_name(1), a.span()).ok());
  loop.run();
  // ADU 2: ~8000 fragments of resident backlog at the head of the queue.
  auto b = payload_of(cap * 8000, 24);
  ASSERT_TRUE(sender.send_adu(generic_name(2), b.span()).ok());

  NackMessage m;
  m.session = scfg.session_id;
  m.adu_ids.push_back(1);
  ByteBuffer nack = encode_nack(m);
  const auto t0 = std::chrono::steady_clock::now();
  feedback.deliver(nack.span());
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  // Front-requeue of an ~8000-fragment batch onto an ~8000-fragment backlog
  // must cost O(batch) deque ops. The bound is deliberately loose (works
  // under sanitizers); a quadratic head-insert regression costs seconds.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 250)
      << "retransmit front-requeue is no longer linear";
  EXPECT_EQ(sender.stats().adus_retransmitted, 1u);
}

// ---- Sender staging: one prepare for every entry ------------------------------

/// A sender over capture paths: what each staging entry puts on the wire
/// and charges to the ledger, with no link in between.
struct CaptureSender {
  EventLoop loop;
  CapturePath out;
  CapturePath feedback;
  AlfSender sender;

  explicit CaptureSender(const SessionConfig& scfg)
      : sender(loop, out, feedback, scfg) {}
};

void expect_same_ledger(const obs::CostAccount& got, const obs::CostAccount& want) {
  EXPECT_EQ(got.operations, want.operations);
  EXPECT_EQ(got.bytes_touched, want.bytes_touched);
  EXPECT_EQ(got.words_touched, want.words_touched);
  EXPECT_EQ(got.memory_passes, want.memory_passes);
  EXPECT_EQ(got.word_loads, want.word_loads);
  EXPECT_EQ(got.word_stores, want.word_stores);
}

TEST(AlfSenderStaging, EveryEntryPutsIdenticalFramesOnTheWire) {
  // One payload through each entry: the caller's bytes (send_adu), a pool
  // slice (send_adu(Slice)), a record marshalled by the sender
  // (send_record) and a resumed id (send_adu_as). All four prepare the
  // same way, so the frames are byte-identical; only the copying entries
  // pay a staging pass, and send_record's encode is its staging pass.
  const RecordSchema schema{"ints", {FieldType::kInt32Array}};
  std::vector<std::int32_t> ints(1000);  // ~4 KB: several fragments
  Rng rng(31);
  for (auto& x : ints) x = static_cast<std::int32_t>(rng.next());
  const Record record{std::move(ints)};
  const auto plan = presentation::compile_plan(schema, TransferSyntax::kXdr);
  obs::CostAccount encode_cost;
  const ByteBuffer wire = presentation::plan_encode(plan, record, &encode_cost).value();

  for (ChecksumKind kind : {ChecksumKind::kNone, ChecksumKind::kInternet,
                            ChecksumKind::kFletcher32, ChecksumKind::kAdler32,
                            ChecksumKind::kCrc32}) {
    for (bool encrypt : {false, true}) {
      SCOPED_TRACE(std::string(checksum_kind_name(kind)) +
                   (encrypt ? " encrypted" : " plain"));
      SessionConfig scfg;
      scfg.syntax = TransferSyntax::kXdr;
      scfg.checksum = kind;
      scfg.encrypt = encrypt;
      scfg.key.key[0] = 0x5A;

      CaptureSender copied(scfg);
      ASSERT_TRUE(copied.sender.send_adu(generic_name(1), wire.span()).ok());

      buf::BufferPool pool;
      buf::BufRef ref = pool.alloc(wire.size());
      std::memcpy(ref.data(), wire.data(), wire.size());
      CaptureSender pooled(scfg);
      ASSERT_TRUE(pooled.sender
                      .send_adu(generic_name(1), buf::Slice{std::move(ref), 0, wire.size()})
                      .ok());

      CaptureSender encoded(scfg);
      ASSERT_TRUE(encoded.sender.send_record(generic_name(1), plan, record).ok());

      SessionConfig resumed_cfg = scfg;
      resumed_cfg.first_adu_id = 2;  // id 1 belongs to a previous incarnation
      CaptureSender resumed(resumed_cfg);
      ASSERT_TRUE(resumed.sender.send_adu_as(1, generic_name(1), wire.span()).ok());

      for (CaptureSender* s : {&copied, &pooled, &encoded, &resumed}) s->loop.run();
      ASSERT_GT(copied.out.frames.size(), 1u);
      EXPECT_EQ(pooled.out.frames, copied.out.frames);
      EXPECT_EQ(encoded.out.frames, copied.out.frames);
      EXPECT_EQ(resumed.out.frames, copied.out.frames);

      // In place: the operation, a load-only checksum, the cipher's pass.
      obs::CostAccount in_place;
      in_place.charge_operation(wire.size());
      in_place.charge_pass(wire.size(), /*stores=*/false);
      if (encrypt) in_place.charge_pass(wire.size(), /*stores=*/true);
      expect_same_ledger(pooled.sender.manipulation_cost(), in_place);

      obs::CostAccount with_copy = in_place;
      with_copy.charge_pass(wire.size(), /*stores=*/true);
      expect_same_ledger(copied.sender.manipulation_cost(), with_copy);
      expect_same_ledger(resumed.sender.manipulation_cost(), with_copy);

      obs::CostAccount with_encode = encode_cost;
      with_encode.merge(in_place);
      expect_same_ledger(encoded.sender.manipulation_cost(), with_encode);
    }
  }
}

TEST(AlfSenderStaging, RecomputePreparesTheReturnedBufferInPlace) {
  // The recompute callback hands its buffer over by value, so the sender
  // prepares that buffer where it lies: a load-only checksum pass, plus
  // the cipher's store pass when encrypting, and no staging copy.
  const ByteBuffer data = payload_of(3000, 41);
  const std::uint64_t words = obs::CostAccount::words(data.size());
  for (bool encrypt : {false, true}) {
    SCOPED_TRACE(encrypt ? "encrypted" : "plain");
    SessionConfig scfg;
    scfg.retransmit = RetransmitPolicy::kApplicationRecompute;
    scfg.encrypt = encrypt;
    CaptureSender s(scfg);
    s.sender.set_recompute([&data](std::uint32_t, const AduName&) {
      return std::optional<ByteBuffer>(data);
    });
    ASSERT_TRUE(s.sender.send_adu(generic_name(1), data.span()).ok());
    s.loop.run();
    const std::vector<ByteBuffer> first = std::move(s.out.frames);
    s.out.frames.clear();
    const obs::CostAccount before = s.sender.manipulation_cost();

    NackMessage m;
    m.session = scfg.session_id;
    m.adu_ids.push_back(1);
    const ByteBuffer nack = encode_nack(m);
    s.feedback.deliver(nack.span());
    s.loop.run();

    EXPECT_EQ(s.sender.stats().adus_recomputed, 1u);
    EXPECT_EQ(s.out.frames, first);  // same id, same bytes: same frames
    const obs::CostAccount& after = s.sender.manipulation_cost();
    EXPECT_EQ(after.operations - before.operations, 1u);
    EXPECT_EQ(after.memory_passes - before.memory_passes, encrypt ? 2u : 1u);
    EXPECT_EQ(after.word_stores - before.word_stores, encrypt ? words : 0u);
  }
}

TEST(AlfSenderStaging, NamesAreHeldOnlyForRecompute) {
  // Only a recompute needs an ADU's name after its fragments left; the
  // other policies must not keep a name for every ADU ever sent.
  for (RetransmitPolicy policy :
       {RetransmitPolicy::kTransportBuffered, RetransmitPolicy::kNone,
        RetransmitPolicy::kApplicationRecompute}) {
    SCOPED_TRACE(static_cast<int>(policy));
    SessionConfig scfg;
    scfg.retransmit = policy;
    CaptureSender s(scfg);
    const ByteBuffer data = payload_of(64, 51);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(s.sender.send_adu(generic_name(i), data.span()).ok());
    }
    s.loop.run();

    const std::size_t want =
        policy == RetransmitPolicy::kApplicationRecompute ? 1000 : 0;
    EXPECT_EQ(s.sender.stats().names_held, want);
    obs::MetricsRegistry reg;
    s.sender.register_metrics(reg, "alf.tx");
    EXPECT_EQ(reg.snapshot().counter_or("alf.tx.names_held", 99999), want);
  }
}

TEST(AlfSenderStaging, NameBookServesResumedIdsBelowTheFirst) {
  // The recompute name book is indexed by id: resumed ids below
  // first_adu_id grow it at the front, ids never staged stay holes, and
  // every NACKed id is recomputed under the name it was staged with.
  SessionConfig scfg;
  scfg.retransmit = RetransmitPolicy::kApplicationRecompute;
  scfg.first_adu_id = 100;
  CaptureSender s(scfg);
  std::vector<std::pair<std::uint32_t, AduName>> asked;
  s.sender.set_recompute([&](std::uint32_t id, const AduName& name) {
    asked.emplace_back(id, name);
    return std::optional<ByteBuffer>(payload_of(64, id));
  });
  const ByteBuffer data = payload_of(64, 7);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(s.sender.send_adu(generic_name(1000 + i), data.span()).ok());
  }
  for (std::uint32_t id : {99u, 60u, 1u, 61u}) {
    ASSERT_TRUE(s.sender.send_adu_as(id, generic_name(id), data.span()).ok());
  }
  s.loop.run();
  EXPECT_EQ(s.sender.stats().names_held, 14u);

  NackMessage m;
  m.session = scfg.session_id;
  m.adu_ids = {1, 2, 60, 61, 62, 99, 100, 109, 110};
  const ByteBuffer nack = encode_nack(m);
  s.feedback.deliver(nack.span());
  s.loop.run();

  const std::vector<std::pair<std::uint32_t, AduName>> want = {
      {1, generic_name(1)},     {60, generic_name(60)},
      {61, generic_name(61)},   {99, generic_name(99)},
      {100, generic_name(1000)}, {109, generic_name(1009)}};
  EXPECT_EQ(asked, want);
  EXPECT_EQ(s.sender.stats().nacks_ignored, 3u);  // 2, 62 and 110: no name
  EXPECT_EQ(s.sender.stats().names_held, 14u);
}

TEST(AlfSenderStaging, NameBookRefusesResumedIdsBeyondTheWindow) {
  // A resumed id far below first_adu_id would stretch the name book over
  // the whole gap (2^31 slots here), so recompute sessions refuse ids more
  // than adu_id_window below it. Other policies keep no book.
  SessionConfig scfg;
  scfg.retransmit = RetransmitPolicy::kApplicationRecompute;
  scfg.first_adu_id = 1u << 31;
  const std::uint32_t window = scfg.adu_id_window;
  const ByteBuffer data = payload_of(64, 3);
  {
    CaptureSender s(scfg);
    for (std::uint32_t id : {1u, scfg.first_adu_id - window - 1}) {
      auto r = s.sender.send_adu_as(id, generic_name(id), data.span());
      ASSERT_FALSE(r.ok()) << id;
      EXPECT_EQ(r.error().code, ErrorCode::kOutOfRange);
    }
    EXPECT_EQ(s.sender.stats().names_held, 0u);
    EXPECT_EQ(s.sender.stats().adus_resumed, 0u);
    const std::uint32_t edge = scfg.first_adu_id - window;
    ASSERT_TRUE(s.sender.send_adu_as(edge, generic_name(edge), data.span()).ok());
    ASSERT_TRUE(s.sender.send_adu(generic_name(0), data.span()).ok());
    s.loop.run();
    EXPECT_EQ(s.sender.stats().names_held, 2u);
    EXPECT_EQ(s.out.frames.size(), 2u);
  }
  scfg.retransmit = RetransmitPolicy::kTransportBuffered;
  CaptureSender s(scfg);
  EXPECT_TRUE(s.sender.send_adu_as(1, generic_name(1), data.span()).ok());
}

TEST(AlfSenderStaging, RecomputeCallbackMayStageWhileTheBookGrows) {
  // The callback runs while the NACKed id's name is in use. Staging from
  // inside it grows the name book, which must not disturb that name.
  SessionConfig scfg;
  scfg.retransmit = RetransmitPolicy::kApplicationRecompute;
  CaptureSender s(scfg);
  const ByteBuffer data = payload_of(64, 5);
  s.sender.set_recompute([&](std::uint32_t, const AduName&) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      EXPECT_TRUE(s.sender.send_adu(generic_name(500 + i), data.span()).ok());
    }
    return std::optional<ByteBuffer>(data);
  });
  ASSERT_TRUE(s.sender.send_adu(generic_name(7), data.span()).ok());
  s.loop.run();
  s.out.frames.clear();

  NackMessage m;
  m.session = scfg.session_id;
  m.adu_ids.push_back(1);
  const ByteBuffer nack = encode_nack(m);
  s.feedback.deliver(nack.span());
  s.loop.run();

  EXPECT_EQ(s.sender.stats().adus_recomputed, 1u);
  EXPECT_EQ(s.sender.stats().names_held, 101u);
  ASSERT_EQ(s.out.frames.size(), 101u);
  const auto msg = decode_message(s.out.frames.back().span());
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data.adu_id, 1u);
  EXPECT_EQ(msg->data.name, generic_name(7));
}

// ---- Sender framing: every fragment encoded in place into one buffer ----------

TEST(AlfSenderFraming, EveryFrameIsTheStandaloneEncoding) {
  // send_fragment encodes into the sender's one frame buffer; each frame
  // it puts on the wire must be exactly what encode_fragment makes of the
  // same fragment, data and parity alike, short tail included.
  SessionConfig scfg;
  scfg.encrypt = true;
  scfg.fec_k = 3;
  scfg.epoch = 5;
  scfg.checksum = ChecksumKind::kFletcher32;
  CaptureSender s(scfg);
  const std::size_t cap = fragment_payload_capacity(s.out.max_frame_size());
  for (std::uint64_t i = 0; i < 3; ++i) {
    const ByteBuffer data = payload_of(cap * (4 + i) + 17 * i + 1, 80 + i);
    ASSERT_TRUE(s.sender.send_adu(generic_name(i), data.span()).ok());
  }
  s.loop.run();
  std::size_t parity = 0;
  for (const ByteBuffer& frame : s.out.frames) {
    const auto msg = decode_message(frame.span());
    ASSERT_TRUE(msg.has_value());
    if (msg->type != MessageType::kData) continue;
    parity += msg->data.is_parity();
    EXPECT_EQ(encode_fragment(msg->data), frame);
  }
  EXPECT_EQ(parity, s.sender.stats().fec_parity_sent);
  EXPECT_GT(parity, 0u);
}

/// test::LoopbackPath's synchronous delivery, minus the frames whose send
/// index is listed in `drop`.
class DroppingLoopback final : public NetPath {
 public:
  explicit DroppingLoopback(std::set<std::size_t> drop) : drop_(std::move(drop)) {}
  bool send(ConstBytes frame) override {
    if (drop_.contains(sent_++)) return true;
    return inner_.send(frame);
  }
  void set_handler(FrameHandler handler) override {
    inner_.set_handler(std::move(handler));
  }
  std::size_t max_frame_size() const override { return inner_.max_frame_size(); }

 private:
  test::LoopbackPath inner_;
  std::set<std::size_t> drop_;
  std::size_t sent_ = 0;
};

TEST(AlfSenderFraming, SynchronousLoopbackDeliversEveryAduIntact) {
  // Over a synchronous path the receiver parses each frame while the
  // sender's frame buffer is still lent out, and its completion report
  // reaches the sender inside that same send(). In debug builds
  // send_fragment asserts it is never re-entered meanwhile. Frames 0 and 1
  // are both data fragments of ADU 0's first FEC group, so that ADU is
  // NACKed and retransmitted over the same paths; frame 8 is recovered
  // from parity.
  EventLoop loop;
  DroppingLoopback data({0, 1, 8});
  test::LoopbackPath feedback;
  SessionConfig scfg;
  scfg.encrypt = true;
  scfg.fec_k = 2;
  scfg.checksum = ChecksumKind::kCrc32;
  AlfSender sender(loop, data, feedback, scfg);
  AlfReceiver receiver(loop, data, feedback, scfg);
  std::map<std::uint64_t, ByteBuffer> got;
  receiver.set_on_adu([&](Adu&& a) { got.emplace(a.name.a, std::move(a.payload)); });
  bool completed = false;
  receiver.set_on_complete([&] { completed = true; });

  const std::size_t cap = fragment_payload_capacity(data.max_frame_size());
  std::vector<ByteBuffer> sent;
  for (std::uint64_t i = 0; i < 4; ++i) {
    sent.push_back(payload_of(cap * 3 + 100 * i + 1, 60 + i));  // 4 fragments
    ASSERT_TRUE(sender.send_adu(generic_name(i), sent.back().span()).ok());
  }
  sender.finish();
  loop.run();

  EXPECT_TRUE(completed);
  ASSERT_EQ(got.size(), sent.size());
  for (std::uint64_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], sent[i]) << i;
  EXPECT_EQ(sender.stats().adus_retransmitted, 1u);
  EXPECT_GE(receiver.stats().fragments_fec_reconstructed, 1u);
}

}  // namespace
}  // namespace ngp::alf
