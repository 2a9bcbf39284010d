// Tests for the ngp::obs subsystem: MetricsRegistry snapshot semantics,
// analytic cost accounting (the §4 fused-vs-layered memory-pass claim as
// exact integers), and the flagship determinism property — two seeded runs
// of the same fault-injected ALF transfer export byte-identical metrics and
// flight-recorder JSON.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "ilp/engine.h"
#include "ilp/stages.h"
#include "netsim/fault.h"
#include "netsim/link.h"
#include "netsim/net_path.h"
#include "obs/cost.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace ngp {
namespace {

using alf::AlfReceiver;
using alf::AlfSender;
using alf::ProcessMode;
using alf::SessionConfig;

// ---- MetricsRegistry / Snapshot -------------------------------------------------

TEST(MetricsRegistry, SnapshotPrefixesAndSortsSamples) {
  obs::MetricsRegistry reg;
  // Registered deliberately out of name order: the snapshot must sort.
  reg.add_source("zeta", [](obs::MetricSink& s) {
    s.counter("frames", 7);
    s.gauge("depth", 2.5);
  });
  reg.add_source("alpha", [](obs::MetricSink& s) { s.counter("frames", 3); });

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("alpha.frames"), 3u);
  EXPECT_EQ(snap.counter_or("zeta.frames"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("zeta.depth"), 2.5);
  EXPECT_EQ(snap.counter_or("missing", 42u), 42u);
  EXPECT_EQ(snap.find("nope"), nullptr);

  // Sorted order is what makes the export deterministic.
  const auto& samples = snap.samples();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].name, samples[i].name);
  }
  const std::string text = snap.to_text();
  EXPECT_LT(text.find("alpha.frames"), text.find("zeta.frames"));
}

TEST(MetricsRegistry, SourcesRunOnlyAtSnapshotTime) {
  obs::MetricsRegistry reg;
  int calls = 0;
  reg.add_source("lazy", [&](obs::MetricSink& s) {
    ++calls;
    s.counter("calls", static_cast<std::uint64_t>(calls));
  });
  EXPECT_EQ(calls, 0);  // registration alone must not invoke the source
  EXPECT_EQ(reg.snapshot().counter_or("lazy.calls"), 1u);
  EXPECT_EQ(reg.snapshot().counter_or("lazy.calls"), 2u);
  EXPECT_EQ(calls, 2);
}

TEST(MetricsRegistry, RemoveSourceDropsItsSamples) {
  obs::MetricsRegistry reg;
  const auto id = reg.add_source("gone", [](obs::MetricSink& s) { s.counter("x", 1); });
  reg.add_source("kept", [](obs::MetricSink& s) { s.counter("x", 2); });
  EXPECT_EQ(reg.source_count(), 2u);
  reg.remove_source(id);
  EXPECT_EQ(reg.source_count(), 1u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("gone.x"), nullptr);
  EXPECT_EQ(snap.counter_or("kept.x"), 1u + 1u);
}

TEST(MetricsRegistry, JsonExportIsStableAcrossSnapshots) {
  obs::MetricsRegistry reg;
  Histogram h(0.0, 100.0, 4);
  h.add(10.0);
  h.add(99.0);
  reg.add_source("j", [&](obs::MetricSink& s) {
    s.counter("c", 5);
    s.gauge("g", 1.25);
    s.histogram("h", h);
  });
  const std::string a = reg.snapshot().to_json();
  const std::string b = reg.snapshot().to_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"j.c\""), std::string::npos);
  EXPECT_NE(a.find("\"histogram\""), std::string::npos);
}

// ---- Cost accounting: the §4 claim as exact integers ----------------------------

TEST(CostAccount, FusedChargesExactlyOnePassRegardlessOfDepth) {
  const std::size_t n = 65536;
  ByteBuffer src(n), dst(n);
  Rng(0xC0).fill(src.span());
  const auto w = obs::CostAccount::words(n);

  // Depth 2: checksum + encrypt.
  {
    obs::CostAccount acct;
    ChecksumStage ck;
    EncryptStage enc(ChaChaKey{}, 0);
    ilp_fused_accounted(&acct, src.span(), dst.span(), ck, enc);
    EXPECT_EQ(acct.operations, 1u);
    EXPECT_EQ(acct.memory_passes, 1u);
    EXPECT_EQ(acct.word_loads, w);
    EXPECT_EQ(acct.word_stores, w);
    EXPECT_DOUBLE_EQ(acct.passes_per_operation(), 1.0);
  }
  // Depth 4: checksum + encrypt + byteswap + app read — same single pass.
  {
    obs::CostAccount acct;
    ChecksumStage ck;
    EncryptStage enc(ChaChaKey{}, 0);
    Byteswap32Stage bs;
    AppSumStage app;
    ilp_fused_accounted(&acct, src.span(), dst.span(), ck, enc, bs, app);
    EXPECT_EQ(acct.operations, 1u);
    EXPECT_EQ(acct.memory_passes, 1u);
    EXPECT_EQ(acct.word_loads, w);
    EXPECT_EQ(acct.word_stores, w);
    EXPECT_DOUBLE_EQ(acct.loads_per_word(), 1.0);
    EXPECT_DOUBLE_EQ(acct.stores_per_word(), 1.0);
  }
}

TEST(CostAccount, LayeredChargesOnePassPerStagePlusCopy) {
  const std::size_t n = 65536;
  ByteBuffer src(n), dst(n);
  Rng(0xC1).fill(src.span());
  const auto w = obs::CostAccount::words(n);

  obs::CostAccount acct;
  ChecksumStage ck;                // non-mutating
  EncryptStage enc(ChaChaKey{}, 0);  // mutating
  Byteswap32Stage bs;              // mutating
  ilp_layered_accounted(&acct, src.span(), dst.span(), ck, enc, bs);

  // Copy pass + one pass per stage = 4 traversals of the buffer.
  EXPECT_EQ(acct.operations, 1u);
  EXPECT_EQ(acct.memory_passes, 4u);
  EXPECT_EQ(acct.word_loads, 4 * w);
  // Stores: the copy plus each mutating stage (encrypt, byteswap).
  EXPECT_EQ(acct.word_stores, 3 * w);
  EXPECT_DOUBLE_EQ(acct.passes_per_operation(), 4.0);
}

TEST(CostAccount, LayeredInPlaceSkipsTheCopyPass) {
  const std::size_t n = 4096;
  ByteBuffer buf(n);
  Rng(0xC2).fill(buf.span());
  const auto w = obs::CostAccount::words(n);

  obs::CostAccount acct;
  ChecksumStage ck;
  Crc32Stage crc;
  ilp_layered_accounted(&acct, buf.span(), buf.span(), ck, crc);
  EXPECT_EQ(acct.memory_passes, 2u);
  EXPECT_EQ(acct.word_loads, 2 * w);
  EXPECT_EQ(acct.word_stores, 0u);  // neither stage mutates, no copy
}

TEST(CostAccount, FusedAndLayeredAgreeOnResultsDivergeOnCost) {
  // The whole point of §4: same computation, different memory traffic.
  const std::size_t n = 40000;
  ByteBuffer src(n), fused_dst(n), layered_dst(n);
  Rng(0xC3).fill(src.span());

  obs::CostAccount fused_cost, layered_cost;
  {
    EncryptStage enc(ChaChaKey{}, 7);
    ChecksumStage ck;
    ilp_fused_accounted(&fused_cost, src.span(), fused_dst.span(), enc, ck);
  }
  {
    EncryptStage enc(ChaChaKey{}, 7);
    ChecksumStage ck;
    ilp_layered_accounted(&layered_cost, src.span(), layered_dst.span(), enc, ck);
  }
  EXPECT_EQ(fused_dst, layered_dst);
  EXPECT_EQ(fused_cost.memory_passes, 1u);
  EXPECT_EQ(layered_cost.memory_passes, 3u);
  EXPECT_GT(layered_cost.word_loads, fused_cost.word_loads);
}

TEST(CostAccount, NullAccountIsANoOpCallShape) {
  ByteBuffer src(1024), dst(1024);
  Rng(0xC4).fill(src.span());
  ChecksumStage ck;
  ilp_fused_accounted(nullptr, src.span(), dst.span(), ck);  // must not crash
  EXPECT_EQ(src, dst);
}

TEST(CostAccount, MergeAndEmitCost) {
  obs::CostAccount a, b;
  a.charge_fused(8000);
  b.charge_layered(8000, 3, 1, /*copy_pass=*/true);
  a.merge(b);
  EXPECT_EQ(a.operations, 2u);
  EXPECT_EQ(a.bytes_touched, 16000u);
  EXPECT_EQ(a.memory_passes, 1u + 4u);

  obs::MetricsRegistry reg;
  reg.add_source("m", [&](obs::MetricSink& s) { obs::emit_cost(s, "cost", a); });
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("m.cost.operations"), 2u);
  EXPECT_EQ(snap.counter_or("m.cost.memory_passes"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("m.cost.passes_per_operation"), 2.5);
}

// ---- Live-traffic cost: ProcessMode is visible in the ledger --------------------

LinkConfig obs_fast_link() {
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = 2 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  return cfg;
}

/// Sender+receiver over a clean duplex channel, metrics registered.
struct ObsPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data_path;
  LinkPath feedback_tx;
  LinkPath feedback_rx;
  AlfSender sender;
  AlfReceiver receiver;
  std::size_t delivered = 0;

  explicit ObsPair(SessionConfig scfg)
      : channel(loop, obs_fast_link(), obs_fast_link()),
        data_path(channel.forward),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse),
        sender(loop, data_path, feedback_rx, scfg),
        receiver(loop, data_path, feedback_tx, scfg) {
    receiver.set_on_adu([this](Adu&&) { ++delivered; });
  }

  void transfer(std::size_t adus, std::size_t bytes) {
    Rng rng(0xAB);
    for (std::size_t i = 0; i < adus; ++i) {
      ByteBuffer data(bytes);
      rng.fill(data.span());
      ASSERT_TRUE(sender.send_adu(generic_name(i), data.span()).ok());
    }
    sender.finish();
    loop.run();
    ASSERT_EQ(delivered, adus);
  }
};

TEST(ManipulationCost, IntegratedReceiverPaysOnePassLayeredPaysTwo) {
  // Encrypted session: integrated mode fuses decrypt+checksum into one
  // pass; layered mode walks the fragment once per manipulation. The
  // receiver's ledger must show exactly 1.0 vs 2.0 passes per fragment —
  // the paper's §4 contrast measured on live traffic.
  SessionConfig integrated;
  integrated.encrypt = true;
  integrated.process_mode = ProcessMode::kIntegrated;
  ObsPair a(integrated);
  a.transfer(8, 6000);
  ASSERT_GT(a.receiver.manipulation_cost().operations, 0u);
  EXPECT_DOUBLE_EQ(a.receiver.manipulation_cost().passes_per_operation(), 1.0);

  SessionConfig layered = integrated;
  layered.process_mode = ProcessMode::kLayered;
  ObsPair b(layered);
  b.transfer(8, 6000);
  ASSERT_GT(b.receiver.manipulation_cost().operations, 0u);
  EXPECT_DOUBLE_EQ(b.receiver.manipulation_cost().passes_per_operation(), 2.0);

  // Same traffic, same volume — only the pass count moved.
  EXPECT_EQ(a.receiver.manipulation_cost().bytes_touched,
            b.receiver.manipulation_cost().bytes_touched);
  EXPECT_LT(a.receiver.manipulation_cost().word_loads,
            b.receiver.manipulation_cost().word_loads);
}

TEST(ManipulationCost, SenderLedgerCoversEveryAdu) {
  SessionConfig cfg;
  ObsPair p(cfg);
  p.transfer(4, 20000);
  const auto& cost = p.sender.manipulation_cost();
  // One operation per prepared ADU (lossless: no recomputes), covering the
  // exact payload volume, with the layered sender's two passes (checksum
  // read + staging copy).
  EXPECT_EQ(cost.operations, p.sender.stats().adus_sent);
  EXPECT_EQ(cost.bytes_touched, 4u * 20000u);
  EXPECT_DOUBLE_EQ(cost.passes_per_operation(), 2.0);
}

// ---- The flagship property: deterministic snapshots under faults ----------------

struct RunResult {
  std::string metrics_json;
  std::string flight_json;
  std::uint64_t flight_events = 0;  ///< as the registry exported it
  std::size_t delivered = 0;
};

/// One complete fault-injected transfer with every layer registered in a
/// fresh registry. Everything is seeded; nothing reads wall-clock time.
RunResult run_faulty_transfer(std::uint64_t seed) {
  EventLoop loop;
  DuplexChannel channel(loop, obs_fast_link(), obs_fast_link());
  LinkPath data_inner(channel.forward);
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);

  FaultPlan plan;
  plan.seed = seed;
  plan.payload_bitflip_rate = 0.05;
  plan.replay_rate = 0.03;
  plan.extend_rate = 0.02;
  FaultyPath data_path(loop, data_inner, plan);

  SessionConfig scfg;  // defaults: Internet checksum, integrated mode
  AlfSender sender(loop, data_path, feedback_rx, scfg);
  AlfReceiver receiver(loop, data_path, feedback_tx, scfg);

  obs::FlightRecorder flight = obs::make_loop_flight_recorder(loop);
  flight.set_enabled(true);
  sender.set_flight(&flight);
  receiver.set_flight(&flight);

  obs::MetricsRegistry reg;
  reg.add("alf.tx", sender);
  reg.add("alf.rx", receiver);
  reg.add("net.data", channel.forward);
  reg.add("net.feedback", channel.reverse);
  reg.add("chaos.data", data_path);
  reg.add("flight", flight);

  RunResult out;
  receiver.set_on_adu([&out](Adu&&) { ++out.delivered; });
  Rng payload_rng(seed ^ 0x5EED);
  for (std::uint64_t i = 0; i < 12; ++i) {
    ByteBuffer data(2000 + static_cast<std::size_t>(i) * 333);
    payload_rng.fill(data.span());
    if (!sender.send_adu(generic_name(i), data.span()).ok()) break;
  }
  sender.finish();
  loop.run();

  const obs::Snapshot snap = reg.snapshot();
  out.metrics_json = snap.to_json();
  out.flight_events = snap.counter_or("flight.events");
  out.flight_json = flight.to_perfetto_json();
  return out;
}

TEST(SnapshotDeterminism, SameSeedSameTransferByteIdenticalJson) {
  const RunResult a = run_faulty_transfer(42);
  const RunResult b = run_faulty_transfer(42);
  EXPECT_GT(a.delivered, 0u);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.metrics_json, b.metrics_json);  // byte-identical export
  if constexpr (obs::kEnabled) {
    // The registered recorder exports its event count into the snapshot.
    EXPECT_GT(a.flight_events, 0u);
    EXPECT_NE(a.flight_json.find("\"staged\""), std::string::npos);
    EXPECT_EQ(a.flight_json, b.flight_json);
  }
  // And the export actually carries cross-layer content.
  EXPECT_NE(a.metrics_json.find("alf.rx.cost.memory_passes"), std::string::npos);
  EXPECT_NE(a.metrics_json.find("net.data.frames_delivered"), std::string::npos);
  EXPECT_NE(a.metrics_json.find("chaos.data.payload_bitflips"), std::string::npos);
}

TEST(SnapshotDeterminism, KernelTierDoesNotPerturbSnapshot) {
  // Same seed, different SIMD dispatch tier: kernels may only change HOW
  // bytes are moved, never the bytes or the §4 ledger, so the whole
  // cross-layer export — cost counters included — stays byte-identical.
  const simd::KernelTier saved = simd::active_tier();
  ASSERT_TRUE(simd::set_active_tier(simd::KernelTier::kScalar));
  const RunResult scalar = run_faulty_transfer(42);
  ASSERT_TRUE(simd::set_active_tier(simd::best_tier()));
  const RunResult best = run_faulty_transfer(42);
  simd::set_active_tier(saved);

  EXPECT_GT(scalar.delivered, 0u);
  EXPECT_EQ(scalar.delivered, best.delivered);
  EXPECT_EQ(scalar.metrics_json, best.metrics_json);  // ledger tier-invariant
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(scalar.flight_json, best.flight_json);
  }
}

TEST(SnapshotDeterminism, DifferentSeedsDiverge) {
  const RunResult a = run_faulty_transfer(7);
  const RunResult b = run_faulty_transfer(8);
  // Different fault draws must leave different fingerprints somewhere in
  // the cross-layer export (fault counters, retransmits, link frames).
  EXPECT_NE(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace ngp
