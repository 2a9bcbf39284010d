// zerocopy_test.cpp — the end-to-end zero-copy datapath (DESIGN.md §12).
//
// Runs the same seeded transfer twice — once the flat way (the sender
// stages a flat payload, the link uses the default pool, the application
// takes flat delivery through the flatten bridge) and once the pooled way
// (Link writes into a BufferPool, the sender prepares in place, the
// application takes the chain) — and pins two things:
//
//   1. The delivered bytes are IDENTICAL. Zero-copy is an ownership
//      change, not a data change.
//   2. The §4 memory-traffic ledger drops: copied bytes (word stores
//      charged to the sender's manipulation account plus the receiver's
//      reassembly and manipulation accounts) fall by at least 40% — the
//      acceptance floor for this subsystem. In practice the unencrypted
//      pooled path stores nothing at all on those accounts.
//
// Then the supporting cast: the flatten bridge (chain-unaware apps),
// loss + retransmission, FEC recovery, every checksum kind over a link
// with no pool wired (the default pool), chain delivery into the
// file/video sinks, sessiond's rx_pool attach, and pool drainage
// (segments_live == 0 once the endpoints are gone).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alf/file_sink.h"
#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/video_sink.h"
#include "buf/pool.h"
#include "engine/engine.h"
#include "netsim/net_path.h"
#include "sessiond/sessiond.h"
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

ByteBuffer payload_of(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

/// Copied bytes per the §4 ledger: every word-store pass charged to the
/// three accounts a transfer's data manipulation runs through. The link's
/// own transfer charge (the "copy from the net") is identical on both
/// paths and deliberately excluded — the subsystem can only remove the
/// host-side copies.
std::uint64_t copied_bytes(const AlfSender& s, const AlfReceiver& r) {
  return (s.manipulation_cost().word_stores + r.manipulation_cost().word_stores +
          r.reassembly_cost().word_stores) *
         8;
}

/// Harness like alf_test's AlfPair, with an optional shared rx pool wired
/// into both the ingress link and the receiver.
struct ZcPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data_path;
  LinkPath feedback_tx;
  LinkPath feedback_rx;
  AlfSender sender;
  AlfReceiver receiver;

  std::vector<Adu> delivered;        ///< flat deliveries (on_adu)
  std::vector<AduChain> chains;      ///< chain deliveries (on_adu_chain)
  bool completed = false;

  ZcPair(SessionConfig scfg, buf::BufferPool* pool, LinkConfig data_cfg)
      : channel(loop, data_cfg, fast_link()),
        data_path(channel.forward),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse),
        sender(loop, data_path, feedback_rx, scfg),
        receiver(loop, data_path, feedback_tx, scfg) {
    if (pool != nullptr) {
      channel.forward.set_rx_pool(pool);
      receiver.set_rx_pool(pool);
    }
    receiver.set_on_complete([this] { completed = true; });
  }

  ZcPair(SessionConfig scfg, buf::BufferPool* pool)
      : ZcPair(scfg, pool, fast_link()) {}

  void collect_flat() {
    receiver.set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
  }
  void collect_chains() {
    receiver.set_on_adu_chain(
        [this](AduChain&& a) { chains.push_back(std::move(a)); });
  }

  /// Sends `payload` the pooled way: produce it directly inside a pool
  /// segment (the application-side half of the zero-copy contract) and
  /// hand the slice over.
  void send_pooled(buf::BufferPool& pool, const AduName& name,
                   ConstBytes payload) {
    buf::BufRef ref = pool.alloc(payload.size());
    std::memcpy(ref.data(), payload.data(), payload.size());
    buf::Slice s{std::move(ref), 0, payload.size()};
    ASSERT_TRUE(sender.send_adu(name, std::move(s)).ok());
  }
};

/// One seeded multi-ADU transfer; returns (delivered payload by ordinal,
/// copied bytes). `pool == nullptr` selects the flat way: flat send, no
/// pool wired, flat delivery.
struct TransferResult {
  std::map<std::uint64_t, ByteBuffer> delivered;
  std::uint64_t copied = 0;
  bool completed = false;
};

TransferResult run_transfer(SessionConfig scfg, buf::BufferPool* pool,
                            std::size_t adus = 24, double loss = 0.0) {
  TransferResult out;
  LinkConfig data_cfg = fast_link();
  ZcPair p(scfg, pool, data_cfg);
  p.channel.forward.set_loss_rate(loss);
  if (pool != nullptr) {
    p.collect_chains();
  } else {
    p.collect_flat();
  }
  for (std::uint64_t i = 0; i < adus; ++i) {
    auto data = payload_of(3000 + static_cast<std::size_t>(i) * 211, 7000 + i);
    if (pool != nullptr) {
      p.send_pooled(*pool, generic_name(i), data.span());
    } else {
      EXPECT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
    }
  }
  p.sender.finish();
  p.loop.run();
  for (auto& a : p.delivered) out.delivered[a.name.a] = std::move(a.payload);
  for (auto& c : p.chains) out.delivered[c.name.a] = c.payload.flatten();
  out.copied = copied_bytes(p.sender, p.receiver);
  out.completed = p.completed;
  return out;
}

// ---- the acceptance pin ----------------------------------------------------

TEST(ZeroCopy, CopiedBytesDropAtLeast40PercentWithIdenticalOutput) {
  SessionConfig scfg;  // kInternet checksum, kRaw — the zero-copy sweet spot
  TransferResult flat = run_transfer(scfg, nullptr);

  buf::BufferPool pool;
  TransferResult pooled = run_transfer(scfg, &pool);

  ASSERT_TRUE(flat.completed);
  ASSERT_TRUE(pooled.completed);
  ASSERT_EQ(flat.delivered.size(), pooled.delivered.size());
  for (const auto& [ordinal, bytes] : flat.delivered) {
    ASSERT_TRUE(pooled.delivered.count(ordinal)) << "ADU " << ordinal;
    EXPECT_EQ(pooled.delivered.at(ordinal), bytes) << "ADU " << ordinal;
  }

  // The headline number: >= 40% fewer copied bytes. Without encryption the
  // pooled path's three accounts store nothing — placement is by
  // reference, the chain checksum is a load-only pass — so the drop is
  // total; the 0.6 factor is the acceptance floor, not the expectation.
  ASSERT_GT(flat.copied, 0u);
  EXPECT_LE(pooled.copied, (flat.copied * 6) / 10)
      << "flat=" << flat.copied << " pooled=" << pooled.copied;
  EXPECT_EQ(pooled.copied, 0u);
}

TEST(ZeroCopy, EncryptedTransferStillDropsAtLeast40Percent) {
  // With ChaCha20 the pooled path pays exactly one store pass (the
  // in-place cipher); the flat way pays staging + cipher + the flatten
  // bridge. Output must still match byte for byte.
  ChaChaKey key;
  for (std::size_t i = 0; i < key.key.size(); ++i) {
    key.key[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  SessionConfig scfg;
  scfg.encrypt = true;
  scfg.key = key;

  TransferResult flat = run_transfer(scfg, nullptr);
  buf::BufferPool pool;
  TransferResult pooled = run_transfer(scfg, &pool);

  ASSERT_TRUE(flat.completed);
  ASSERT_TRUE(pooled.completed);
  ASSERT_EQ(flat.delivered.size(), pooled.delivered.size());
  for (const auto& [ordinal, bytes] : flat.delivered) {
    EXPECT_EQ(pooled.delivered.at(ordinal), bytes) << "ADU " << ordinal;
  }
  ASSERT_GT(flat.copied, 0u);
  EXPECT_LE(pooled.copied, (flat.copied * 6) / 10)
      << "flat=" << flat.copied << " pooled=" << pooled.copied;
  EXPECT_GT(pooled.copied, 0u);  // the cipher pass is real and charged
}

// ---- correctness of the pooled path under everything else ------------------

TEST(ZeroCopy, FlattenBridgeDeliversIdenticalBytesToChainUnawareApp) {
  // An application that only sets on_adu still works over a pooled
  // receiver: the receiver flattens once at the delivery boundary.
  SessionConfig scfg;
  buf::BufferPool pool;
  ZcPair p(scfg, &pool);
  p.collect_flat();  // no chain handler installed — the bridge case

  std::map<std::uint64_t, ByteBuffer> sent;
  for (std::uint64_t i = 0; i < 12; ++i) {
    auto data = payload_of(5000 + static_cast<std::size_t>(i) * 97, 9100 + i);
    p.send_pooled(pool, generic_name(i), data.span());
    sent.emplace(i, std::move(data));
  }
  p.sender.finish();
  p.loop.run();

  ASSERT_EQ(p.delivered.size(), 12u);
  for (const auto& adu : p.delivered) {
    EXPECT_EQ(adu.payload, sent.at(adu.name.a));
  }
  EXPECT_GT(p.receiver.stats().fragments_zero_copy, 0u);
  EXPECT_EQ(p.receiver.stats().adus_chain_delivered, 0u);
}

TEST(ZeroCopy, ChainDeliveryStatsAndSegmentDrainage) {
  SessionConfig scfg;
  buf::BufferPool pool;
  {
    ZcPair p(scfg, &pool);
    p.collect_chains();
    for (std::uint64_t i = 0; i < 8; ++i) {
      auto data = payload_of(20'000, 9200 + i);  // multi-fragment chains
      p.send_pooled(pool, generic_name(i), data.span());
    }
    p.sender.finish();
    p.loop.run();

    ASSERT_EQ(p.chains.size(), 8u);
    EXPECT_EQ(p.receiver.stats().adus_chain_delivered, 8u);
    EXPECT_GT(p.receiver.stats().fragments_zero_copy, 8u);
    for (const auto& c : p.chains) {
      EXPECT_GT(c.payload.segment_count(), 1u);  // reassembled, not flattened
    }
    // Chains (and the sender's retransmit copies) still hold segments here.
    EXPECT_GT(pool.stats().segments_live, 0u);
  }
  // Endpoints, chains, and the link's in-flight frames are gone: every
  // segment came home. This is the ownership rule of DESIGN.md §12 in one
  // gauge.
  EXPECT_EQ(pool.stats().segments_live, 0u);
  EXPECT_GT(pool.stats().recycles, 0u);
}

TEST(ZeroCopy, PayloadsIntactUnderLossAndRetransmission) {
  SessionConfig scfg;
  scfg.nack_delay = 10 * kMillisecond;
  buf::BufferPool pool;
  TransferResult flat = run_transfer(scfg, nullptr, 40, 0.12);
  TransferResult pooled = run_transfer(scfg, &pool, 40, 0.12);

  ASSERT_TRUE(pooled.completed);
  ASSERT_EQ(pooled.delivered.size(), 40u);
  // Same seeds, same link RNG draw sequence (pooled rx must not perturb
  // it): the two runs see the same losses and deliver the same bytes.
  ASSERT_EQ(flat.delivered.size(), 40u);
  for (const auto& [ordinal, bytes] : flat.delivered) {
    EXPECT_EQ(pooled.delivered.at(ordinal), bytes) << "ADU " << ordinal;
  }
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

TEST(ZeroCopy, FecRecoveryOverPooledPath) {
  SessionConfig scfg;
  scfg.fec_k = 4;
  scfg.nack_delay = 10 * kMillisecond;
  buf::BufferPool pool;
  TransferResult pooled = run_transfer(scfg, &pool, 32, 0.08);
  ASSERT_TRUE(pooled.completed);
  ASSERT_EQ(pooled.delivered.size(), 32u);
  for (const auto& [ordinal, bytes] : pooled.delivered) {
    EXPECT_EQ(bytes, payload_of(3000 + static_cast<std::size_t>(ordinal) * 211,
                                7000 + ordinal));
  }
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

TEST(ZeroCopy, EveryChecksumKindRunsZeroCopyOverADefaultPoolLink) {
  // Every Link delivers its frames inside a pool segment — its own rx pool
  // or, with none wired anywhere, the process-wide default — so a session
  // with no pool attached still reassembles by reference, whatever its
  // checksum, with stage 2 inline or on engine workers.
  const std::uint64_t live_before = buf::default_pool().stats().segments_live;
  for (ChecksumKind kind : {ChecksumKind::kNone, ChecksumKind::kFletcher32,
                            ChecksumKind::kAdler32, ChecksumKind::kCrc32}) {
    for (unsigned workers : {0u, 2u}) {
      SCOPED_TRACE(std::string(checksum_kind_name(kind)) +
                   (workers == 0 ? " inline" : " 2-worker engine"));
      std::map<std::uint64_t, ByteBuffer> sent, got;
      {
        std::unique_ptr<engine::Engine> eng;
        if (workers > 0) {
          eng = std::make_unique<engine::Engine>(
              engine::EngineConfig{.workers = workers});
        }
        SessionConfig scfg;
        scfg.checksum = kind;
        ZcPair p(scfg, /*pool=*/nullptr);
        p.receiver.set_engine(eng.get(), kMillisecond);
        p.collect_chains();
        for (std::uint64_t i = 0; i < 6; ++i) {
          auto data = payload_of(9000 + static_cast<std::size_t>(i) * 777, 4242 + i);
          ASSERT_TRUE(p.sender.send_adu(generic_name(i), data.span()).ok());
          sent.emplace(i, std::move(data));
        }
        p.sender.finish();
        p.loop.run();

        ASSERT_TRUE(p.completed);
        for (auto& c : p.chains) got[c.name.a] = c.payload.flatten();
        const ReceiverStats& st = p.receiver.stats();
        EXPECT_EQ(st.fragments_pool_copied, 0u);
        EXPECT_GT(st.fragments_zero_copy, 0u);
        EXPECT_EQ(st.adus_engine_offloaded, workers > 0 ? 6u : 0u);
      }
      EXPECT_EQ(got, sent);
      // Endpoints, chains and in-flight frames are gone: every default-pool
      // segment the transfer took came home.
      EXPECT_EQ(buf::default_pool().stats().segments_live, live_before);
    }
  }
}

// ---- chain delivery into the sinks -----------------------------------------

TEST(ZeroCopy, FileSinkAssemblesChainDeliveries) {
  SessionConfig scfg;
  buf::BufferPool pool;

  const std::size_t kRegion = 11'000;
  const std::size_t kRegions = 6;
  ByteBuffer whole = payload_of(kRegion * kRegions, 555);
  FileSink sink(whole.size());
  {
    ZcPair p(scfg, &pool);
    p.receiver.set_on_adu_chain(
        [&](AduChain&& a) { ASSERT_TRUE(sink.place(a).ok()); });

    for (std::size_t i = 0; i < kRegions; ++i) {
      FileRegionName region{i * kRegion, kRegion};
      p.send_pooled(pool, region.to_name(),
                    whole.span().subspan(i * kRegion, kRegion));
    }
    p.sender.finish();
    p.loop.run();
  }

  EXPECT_EQ(sink.adus_placed(), kRegions);
  EXPECT_EQ(ByteBuffer(sink.contents()), whole);
  // The sink copied at placement and every chain was dropped; with the
  // endpoints gone (retransmit copies released) every segment came home.
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

TEST(ZeroCopy, FramedLwtsChainPlacesAtTheCopyFloor) {
  // A framed transfer syntax used to force a flatten at the sink; the
  // chain-aware decode (decode_octets_chain) instead trims the LWTS
  // framing off the slice list — reference counts, not bytes — so the
  // scatter placement stays the transfer's ONLY copy, exactly like kRaw.
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kLwts;
  buf::BufferPool pool;

  const std::size_t kRegion = 9'000;
  const std::size_t kRegions = 5;
  ByteBuffer whole = payload_of(kRegion * kRegions, 808);
  FileSink sink(whole.size());
  std::size_t multi_segment_chains = 0;
  {
    ZcPair p(scfg, &pool);
    p.receiver.set_on_adu_chain([&](AduChain&& a) {
      multi_segment_chains += a.payload.segment_count() > 1 ? 1 : 0;
      ASSERT_TRUE(sink.place(a).ok());
    });

    for (std::size_t i = 0; i < kRegions; ++i) {
      FileRegionName region{i * kRegion, kRegion};
      // The application marshals INTO the pool segment: frame the region
      // in LWTS there, then hand the slice over.
      const ByteBuffer framed = encode_octets(
          TransferSyntax::kLwts, whole.span().subspan(i * kRegion, kRegion));
      p.send_pooled(pool, region.to_name(), framed.span());
    }
    p.sender.finish();
    p.loop.run();

    ASSERT_EQ(sink.adus_placed(), kRegions);
    EXPECT_EQ(ByteBuffer(sink.contents()), whole);
    EXPECT_GT(multi_segment_chains, 0u);  // trimmed in place, never flattened
    // The copy floor: with the framing trimmed by reference, the §4 ledger
    // shows the same zero host-side copies the kRaw pooled path shows —
    // the load-only chain checksum is the only pass the payload saw.
    EXPECT_EQ(copied_bytes(p.sender, p.receiver), 0u);
  }
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

TEST(ZeroCopy, VideoSinkScattersChainTiles) {
  SessionConfig scfg;
  buf::BufferPool pool;
  ZcPair p(scfg, &pool);

  constexpr std::uint16_t kTilesX = 2, kTilesY = 2;
  constexpr std::size_t kTileBytes = 6000;  // multi-fragment per tile
  VideoSink sink(kTilesX, kTilesY, kTileBytes, /*playout_base=*/kSecond,
                 /*frame_interval=*/100 * kMillisecond);
  p.receiver.set_on_adu_chain([&](AduChain&& a) {
    ASSERT_TRUE(sink.place(a, p.loop.now()).ok());
  });

  std::vector<ByteBuffer> tiles;
  for (std::uint16_t y = 0; y < kTilesY; ++y) {
    for (std::uint16_t x = 0; x < kTilesX; ++x) {
      tiles.push_back(payload_of(kTileBytes, 600 + y * 16 + x));
      VideoRegionName tile{0, x, y, 0};
      p.send_pooled(pool, tile.to_name(), tiles.back().span());
    }
  }
  p.sender.finish();
  p.loop.run();
  sink.render_due(kSecond);

  EXPECT_EQ(sink.stats().tiles_placed, std::size_t{kTilesX} * kTilesY);
  EXPECT_EQ(sink.stats().frames_complete, 1u);
  for (std::uint16_t y = 0; y < kTilesY; ++y) {
    for (std::uint16_t x = 0; x < kTilesX; ++x) {
      const std::size_t idx = std::size_t{y} * kTilesX + x;
      EXPECT_EQ(ByteBuffer(sink.screen().subspan(idx * kTileBytes, kTileBytes)),
                tiles[idx])
          << "tile " << x << "," << y;
    }
  }
}

// ---- sessiond opt-in -------------------------------------------------------

TEST(ZeroCopy, SessiondOpenWiresRxPoolThroughToReceiver) {
  EventLoop loop;
  DuplexChannel channel(loop, fast_link());
  LinkPath data(channel.forward);
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);

  buf::BufferPool pool;
  channel.forward.set_rx_pool(&pool);

  sessiond::Sessiond daemon(loop);
  SessionConfig scfg;
  sessiond::OpenOptions opts;
  opts.attach.rx_pool = &pool;
  auto handle = daemon.open(scfg, {&data, &feedback_tx, &feedback_rx}, opts);
  ASSERT_TRUE(handle.ok());

  std::vector<AduChain> chains;
  handle.value().set_on_adu_chain(
      [&](AduChain&& a) { chains.push_back(std::move(a)); });

  std::map<std::uint64_t, ByteBuffer> sent;
  for (std::uint64_t i = 0; i < 6; ++i) {
    auto payload = payload_of(7000, 321 + i);
    buf::BufRef ref = pool.alloc(payload.size());
    std::memcpy(ref.data(), payload.data(), payload.size());
    ASSERT_TRUE(handle.value()
                    .sender()
                    .send_adu(generic_name(i), buf::Slice{std::move(ref), 0,
                                                          payload.size()})
                    .ok());
    sent.emplace(i, std::move(payload));
  }
  handle.value().sender().finish();
  loop.run();

  ASSERT_EQ(chains.size(), 6u);
  for (const auto& c : chains) {
    EXPECT_EQ(c.payload.flatten(), sent.at(c.name.a));
  }
  EXPECT_GT(handle.value().receiver().stats().fragments_zero_copy, 0u);

  handle.value().close();
  chains.clear();
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

TEST(ZeroCopy, SupervisedSessionKeepsPoolAcrossOpen) {
  // Supervised open: the rx_pool reaches the supervised receiver too (the
  // supervisor re-wires it on every incarnation; here we just pin the
  // first one works end to end).
  EventLoop loop;
  DuplexChannel channel(loop, fast_link());
  LinkPath data(channel.forward);
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);

  buf::BufferPool pool;
  channel.forward.set_rx_pool(&pool);

  sessiond::Sessiond daemon(loop);
  SessionConfig scfg;
  sessiond::OpenOptions opts;
  opts.supervised = true;
  opts.attach.rx_pool = &pool;
  auto handle = daemon.open(scfg, {&data, &feedback_tx, &feedback_rx}, opts);
  ASSERT_TRUE(handle.ok());

  std::vector<AduChain> chains;
  handle.value().set_on_adu_chain(
      [&](AduChain&& a) { chains.push_back(std::move(a)); });

  auto payload = payload_of(12'000, 777);
  buf::BufRef ref = pool.alloc(payload.size());
  std::memcpy(ref.data(), payload.data(), payload.size());
  ASSERT_TRUE(handle.value()
                  .sender()
                  .send_adu(generic_name(0),
                            buf::Slice{std::move(ref), 0, payload.size()})
                  .ok());
  handle.value().sender().finish();
  loop.run();

  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].payload.flatten(), payload);
  EXPECT_GT(handle.value().receiver().stats().fragments_zero_copy, 0u);
}

}  // namespace
}  // namespace ngp::alf
