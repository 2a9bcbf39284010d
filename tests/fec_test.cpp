// Tests for ADU-level FEC (src/alf/fec + the sender/receiver integration).
#include <gtest/gtest.h>

#include <algorithm>

#include "alf/fec.h"
#include "alf/receiver.h"
#include "alf/sender.h"
#include "checksum/checksum.h"
#include "netsim/net_path.h"
#include "util/rng.h"

#include "test_paths.h"

namespace ngp::alf {
namespace {

ByteBuffer payload_of(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

// ---- Pure FEC math ----------------------------------------------------------------

TEST(FecGroupGeometry, FullGroups) {
  FecGroup g{0, 4, 1000, 8000};
  EXPECT_EQ(g.fragment_count(), 4u);
  EXPECT_EQ(g.fragment_offset(2), 2000u);
  EXPECT_EQ(g.fragment_length(3), 1000u);
  EXPECT_EQ(g.parity_length(), 1000u);
}

TEST(FecGroupGeometry, ShortLastGroup) {
  // ADU 8500 bytes, cap 1000, k 4: group at 8000 has one 500-byte fragment.
  FecGroup g{8000, 4, 1000, 8500};
  EXPECT_EQ(g.fragment_count(), 1u);
  EXPECT_EQ(g.fragment_length(0), 500u);
  EXPECT_EQ(g.parity_length(), 500u);
}

TEST(FecGroupGeometry, PartialLastFragment) {
  // Group at 4000, ADU 6500, cap 1000, k 4: fragments 1000,1000,500.
  FecGroup g{4000, 4, 1000, 6500};
  EXPECT_EQ(g.fragment_count(), 3u);
  EXPECT_EQ(g.fragment_length(0), 1000u);
  EXPECT_EQ(g.fragment_length(2), 500u);
  EXPECT_EQ(g.parity_length(), 1000u);
}

/// Recovers fragment `missing` of `g` the way the receiver does over its
/// pool slices: the parity block, clipped to the fragment's length, XORed
/// with the same-length prefix of every other fragment of the group.
ByteBuffer recover(const ByteBuffer& adu, const ByteBuffer& parity,
                   const FecGroup& g, std::size_t missing) {
  ByteBuffer out(parity.subspan(0, g.fragment_length(missing)));
  for (std::size_t i = 0; i < g.fragment_count(); ++i) {
    if (i == missing) continue;
    const std::size_t take = std::min(g.fragment_length(i), out.size());
    xor_into(out.span(), adu.subspan(g.fragment_offset(i), take));
  }
  return out;
}

TEST(FecMath, ParityRecoversEachFragment) {
  ByteBuffer adu = payload_of(6500, 1);
  FecGroup g{4000, 4, 1000, 6500};
  ByteBuffer parity = compute_parity(adu.span(), g);
  for (std::size_t missing = 0; missing < g.fragment_count(); ++missing) {
    ByteBuffer rec = recover(adu, parity, g, missing);
    ASSERT_EQ(rec.size(), g.fragment_length(missing)) << missing;
    EXPECT_EQ(ByteBuffer(adu.subspan(g.fragment_offset(missing), rec.size())), rec)
        << missing;
  }
}

TEST(FecMath, SingleFragmentGroupParityIsCopy) {
  ByteBuffer adu = payload_of(300, 2);
  FecGroup g{0, 4, 1000, 300};
  ByteBuffer parity = compute_parity(adu.span(), g);
  EXPECT_EQ(parity, adu);
  EXPECT_EQ(recover(adu, parity, g, 0), adu);
}

// ---- Receiver placement -----------------------------------------------------------

TEST(FecPlacement, PartlyPlacedFragmentIsRecoveredWhole) {
  // Part of the fragment FEC recovers may already be placed (a placement
  // cut short by the memory limit, a peer that re-cut its fragments): the
  // recovered slice links only the gaps, and the ADU completes at its
  // full length. 2,000 bytes at capacity 1,000 with k = 2: fragment
  // [1000,2000), then only [0,500) of fragment 0, then the parity.
  for (const ChecksumKind kind : {ChecksumKind::kNone, ChecksumKind::kInternet}) {
    SCOPED_TRACE(static_cast<int>(kind));
    EventLoop loop;
    test::LoopbackPath data;
    test::SinkPath feedback;
    SessionConfig cfg;
    AlfReceiver rx(loop, data, feedback, cfg);
    std::vector<Adu> delivered;
    rx.set_on_adu([&delivered](Adu&& a) { delivered.push_back(std::move(a)); });

    const ByteBuffer adu = payload_of(2000, 11);
    const ByteBuffer parity = compute_parity(adu.span(), FecGroup{0, 2, 1000, 2000});
    DataFragment f = test::make_fragment(cfg.session_id, 1, {}, 2000, 0);
    f.checksum_kind = kind;
    f.fec_k = 2;
    f.adu_checksum = compute_checksum(kind, adu.span());
    const auto send = [&](std::uint32_t off, ConstBytes payload, std::uint8_t flags) {
      f.frag_off = off;
      f.payload = payload;
      f.flags = flags;
      data.send(encode_fragment(f).span());
    };
    send(1000, adu.subspan(1000, 1000), 0);
    send(0, adu.subspan(0, 500), 0);
    send(0, parity.span(), kFlagFecParity);

    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].payload, adu);
    EXPECT_EQ(rx.stats().fragments_fec_reconstructed, 1u);
    EXPECT_EQ(rx.stats().adus_checksum_failed, 0u);
  }
}

// ---- End-to-end -------------------------------------------------------------------

struct FecPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data, fb_tx, fb_rx;
  AlfSender sender;
  AlfReceiver receiver;
  std::vector<Adu> delivered;
  std::vector<std::uint32_t> lost;
  bool completed = false;

  explicit FecPair(SessionConfig scfg, LinkConfig link_cfg)
      : channel(loop, link_cfg),
        data(channel.forward),
        fb_tx(channel.reverse),
        fb_rx(channel.reverse),
        sender(loop, data, fb_rx, scfg),
        receiver(loop, data, fb_tx, scfg) {
    receiver.set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
    receiver.set_on_adu_lost(
        [this](std::uint32_t id, const AduName&, bool) { lost.push_back(id); });
    receiver.set_on_complete([this] { completed = true; });
  }
};

LinkConfig fast_link(std::uint64_t seed) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = 2 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  cfg.seed = seed;
  return cfg;
}

/// Loss model dropping an explicit list of frame indices (1-based).
class DropList final : public LossModel {
 public:
  explicit DropList(std::vector<std::uint64_t> which) : which_(std::move(which)) {}
  bool drop(Rng&) override {
    ++count_;
    for (auto w : which_) {
      if (w == count_) return true;
    }
    return false;
  }

 private:
  std::vector<std::uint64_t> which_;
  std::uint64_t count_ = 0;
};

TEST(FecEndToEnd, LosslessDeliveryUnaffected) {
  SessionConfig scfg;
  scfg.fec_k = 4;
  FecPair p(scfg, fast_link(1));
  auto data = payload_of(20'000, 3);
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
  EXPECT_GT(p.sender.stats().fec_parity_sent, 0u);
  EXPECT_EQ(p.receiver.stats().fragments_fec_reconstructed, 0u);
}

TEST(FecEndToEnd, SingleLossRepairedWithoutRetransmission) {
  SessionConfig scfg;
  scfg.fec_k = 4;
  scfg.retransmit = RetransmitPolicy::kNone;  // FEC is the only recovery
  FecPair p(scfg, fast_link(2));
  // ADU of 5000 bytes at 1446 capacity: fragments at 0,1446,2892,4338 (4),
  // then 1 parity. Drop the 2nd data fragment.
  p.channel.forward.set_loss_model(std::make_unique<DropList>(std::vector<std::uint64_t>{2}));
  auto data = payload_of(5000, 4);
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
  EXPECT_EQ(p.receiver.stats().fragments_fec_reconstructed, 1u);
  EXPECT_EQ(p.sender.stats().adus_retransmitted, 0u);
  EXPECT_TRUE(p.completed);
}

TEST(FecEndToEnd, LostParityIsHarmless) {
  SessionConfig scfg;
  scfg.fec_k = 4;
  scfg.retransmit = RetransmitPolicy::kNone;
  FecPair p(scfg, fast_link(3));
  // 5000-byte ADU: frames 1-4 data, 5 parity, 6 DONE. Drop the parity.
  p.channel.forward.set_loss_model(std::make_unique<DropList>(std::vector<std::uint64_t>{5}));
  auto data = payload_of(5000, 5);
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
  EXPECT_EQ(p.receiver.stats().fragments_fec_reconstructed, 0u);
}

TEST(FecEndToEnd, TwoLossesInOneGroupNotRepairable) {
  SessionConfig scfg;
  scfg.fec_k = 4;
  scfg.retransmit = RetransmitPolicy::kNone;
  FecPair p(scfg, fast_link(4));
  p.channel.forward.set_loss_model(
      std::make_unique<DropList>(std::vector<std::uint64_t>{1, 2}));
  auto data = payload_of(5000, 6);
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(p.delivered.size(), 0u);
  EXPECT_EQ(p.lost.size(), 1u);
}

TEST(FecEndToEnd, LossInEachOfTwoGroupsRepaired) {
  SessionConfig scfg;
  scfg.fec_k = 2;
  scfg.retransmit = RetransmitPolicy::kNone;
  FecPair p(scfg, fast_link(5));
  // 5000 bytes at cap 1446 -> fragments 1..4; groups {1,2} and {3,4};
  // wire order: f1 f2 f3 f4 p1 p2 done. Drop f1 and f4.
  p.channel.forward.set_loss_model(
      std::make_unique<DropList>(std::vector<std::uint64_t>{1, 4}));
  auto data = payload_of(5000, 7);
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
  EXPECT_EQ(p.receiver.stats().fragments_fec_reconstructed, 2u);
}

TEST(FecEndToEnd, WorksWithEncryption) {
  SessionConfig scfg;
  scfg.fec_k = 3;
  scfg.encrypt = true;
  scfg.key.key[5] = 0x77;
  scfg.retransmit = RetransmitPolicy::kNone;
  FecPair p(scfg, fast_link(6));
  p.channel.forward.set_loss_model(std::make_unique<DropList>(std::vector<std::uint64_t>{3}));
  auto data = payload_of(8000, 8);
  ASSERT_TRUE(p.sender.send_adu(generic_name(1), data.span()).ok());
  p.sender.finish();
  p.loop.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].payload, data);
  EXPECT_EQ(p.receiver.stats().fragments_fec_reconstructed, 1u);
}

TEST(FecEndToEnd, RandomLossSweepIntegrity) {
  // Whatever gets delivered must be byte-perfect; FEC must strictly reduce
  // whole-ADU losses vs the same seed without FEC.
  auto run = [](std::uint8_t fec_k, std::uint64_t seed) {
    SessionConfig scfg;
    scfg.fec_k = fec_k;
    scfg.retransmit = RetransmitPolicy::kNone;
    FecPair p(scfg, fast_link(seed));
    p.channel.forward.set_loss_rate(0.05);
    std::map<std::uint64_t, ByteBuffer> source;
    for (std::uint64_t i = 0; i < 40; ++i) {
      source.emplace(i, payload_of(6000, 100 + i));
      EXPECT_TRUE(p.sender.send_adu(generic_name(i), source.at(i).span()).ok());
    }
    p.sender.finish();
    p.loop.run();
    for (const auto& adu : p.delivered) {
      EXPECT_EQ(adu.payload, source.at(adu.name.a));
    }
    return p.delivered.size();
  };
  std::size_t with_fec = 0, without_fec = 0;
  for (std::uint64_t seed = 50; seed < 54; ++seed) {
    with_fec += run(4, seed);
    without_fec += run(0, seed);
  }
  EXPECT_GT(with_fec, without_fec);
}

TEST(FecEndToEnd, FecPlusNackBothContribute) {
  SessionConfig scfg;
  scfg.fec_k = 4;
  scfg.retransmit = RetransmitPolicy::kTransportBuffered;
  scfg.nack_delay = 10 * kMillisecond;
  FecPair p(scfg, fast_link(7));
  p.channel.forward.set_loss_rate(0.1);
  std::map<std::uint64_t, ByteBuffer> source;
  for (std::uint64_t i = 0; i < 30; ++i) {
    source.emplace(i, payload_of(7000, 200 + i));
    ASSERT_TRUE(p.sender.send_adu(generic_name(i), source.at(i).span()).ok());
  }
  p.sender.finish();
  p.loop.run();
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(p.delivered.size(), 30u);  // everything recovered one way or another
  for (const auto& adu : p.delivered) EXPECT_EQ(adu.payload, source.at(adu.name.a));
}

}  // namespace
}  // namespace ngp::alf
