// presentation_pipeline_test.cpp — the fused presentation stage end to end
// (DESIGN.md §13): a compiled plan attached to the live §4 pipeline runs
// the wire→host transform inside the decrypt+verify pass, on every path
// the receiver has — inline over a link with no pool wired, inline over a
// pooled link, and engine offload — and through sessiond's
// open()/supervised wiring. The ledger pin is the §13 fusion contract: a
// manipulation pass with a presentation stage charges the passes and
// loads the same pass charges without one (the decode rides free; on the
// chain ledger only the swap's own stores are new), and the post-fusion
// record materialization is load-only.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "buf/pool.h"
#include "engine/engine.h"
#include "ilp/pipeline.h"
#include "netsim/net_path.h"
#include "presentation/plan.h"
#include "sessiond/sessiond.h"
#include "simd/dispatch.h"
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

/// The Table-1 shape: one int32 array — an all-32-bit XDR wire, so the
/// compiled plan's wire stage is a whole-buffer byteswap32 (kSwap32).
RecordSchema table1_schema() {
  return RecordSchema{"table1", {FieldType::kInt32Array}};
}

Record table1_record(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.next());
  return Record{std::move(v)};
}

ChaChaKey test_key() {
  ChaChaKey key;
  for (std::size_t i = 0; i < key.key.size(); ++i) {
    key.key[i] = static_cast<std::uint8_t>(0xC0 + i);
  }
  return key;
}

/// AlfPair-style harness with a presentation plan on the receive side.
struct PlanPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data_path;
  LinkPath feedback_tx;
  LinkPath feedback_rx;
  AlfSender sender;
  AlfReceiver receiver;
  std::shared_ptr<const presentation::PresentationPlan> plan;

  std::vector<Adu> delivered;
  std::vector<AduChain> chains;

  PlanPair(SessionConfig scfg, const RecordSchema& schema, bool attach,
           buf::BufferPool* pool = nullptr)
      : channel(loop, fast_link()),
        data_path(channel.forward),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse),
        sender(loop, data_path, feedback_rx, scfg),
        receiver(loop, data_path, feedback_tx, scfg),
        plan(presentation::cached_plan(schema, scfg.syntax)) {
    if (attach) receiver.set_presentation(plan);
    if (pool != nullptr) {
      channel.forward.set_rx_pool(pool);
      receiver.set_rx_pool(pool);
    }
    receiver.set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
  }

  void run_records(std::size_t count, std::size_t array_len) {
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(
          sender.send_record(generic_name(i), *plan, table1_record(array_len, i))
              .ok());
    }
    sender.finish();
    loop.run();
  }
};

// ---- inline, link with no pool wired ---------------------------------------

TEST(PresentationPipeline, FusedXdrDeliversHostOrderRecords) {
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  PlanPair p(scfg, table1_schema(), /*attach=*/true);
  ASSERT_EQ(p.plan->wire_stage(), PresentStage::kSwap32);

  p.run_records(10, 800);
  ASSERT_EQ(p.delivered.size(), 10u);
  EXPECT_EQ(p.receiver.stats().adus_presentation_fused, 10u);

  for (const auto& adu : p.delivered) {
    // The fused pass already byteswapped: materializing the record is pure
    // data movement, and the values are the ones sent.
    obs::CostAccount cost;
    auto rec = presentation::plan_decode_host_order(*p.plan, adu.payload.span(),
                                                    &cost);
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    EXPECT_EQ(*rec, table1_record(800, adu.name.a));
    EXPECT_EQ(cost.word_stores, 0u);  // load-only: the transform already ran
  }
}

TEST(PresentationPipeline, FusionAddsOnlyTheSwapStoresToThePlainPass) {
  // The §13 fusion contract on the chain ledger: attach a plan, run the
  // identical transfer, and the receiver's manipulation ledger keeps its
  // pass and load counts — the presentation transform rides the pass that
  // was already paid for. The one difference is the swap's own stores: a
  // bare verify over the gather list is load-only, while the fused swap
  // writes each word back once.
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;

  PlanPair with(scfg, table1_schema(), /*attach=*/true);
  with.run_records(8, 513);
  PlanPair without(scfg, table1_schema(), /*attach=*/false);
  without.run_records(8, 513);

  const obs::CostAccount& a = with.receiver.manipulation_cost();
  const obs::CostAccount& b = without.receiver.manipulation_cost();
  EXPECT_EQ(a.memory_passes, b.memory_passes);
  EXPECT_EQ(a.word_loads, b.word_loads);
  EXPECT_EQ(b.word_stores, 0u);
  std::uint64_t swap_words = 0;
  for (const auto& adu : with.delivered) {
    swap_words += obs::CostAccount::words(adu.payload.size());
  }
  ASSERT_EQ(with.delivered.size(), 8u);
  EXPECT_EQ(a.word_stores, swap_words);
  EXPECT_EQ(with.receiver.stats().adus_presentation_fused, 8u);
  EXPECT_EQ(without.receiver.stats().adus_presentation_fused, 0u);

  // And the unfused run's payloads are wire-order: the classic decode
  // still reads them (same records, one extra transform pass if charged).
  for (const auto& adu : without.delivered) {
    auto rec = decode_record(TransferSyntax::kXdr, table1_schema(),
                             adu.payload.span());
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, table1_record(513, adu.name.a));
  }
}

TEST(PresentationPipeline, EncryptedFusedXdrStillOnePassAndCorrect) {
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  scfg.encrypt = true;
  scfg.key = test_key();
  PlanPair p(scfg, table1_schema(), /*attach=*/true);

  p.run_records(6, 301);
  ASSERT_EQ(p.delivered.size(), 6u);
  for (const auto& adu : p.delivered) {
    auto rec = presentation::plan_decode_host_order(*p.plan, adu.payload.span());
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    EXPECT_EQ(*rec, table1_record(301, adu.name.a));
  }
  // decrypt + checksum + byteswap fused: still one pass per ADU; the
  // flatten bridge into on_adu is charged to the reassembly ledger.
  EXPECT_EQ(p.receiver.stats().adus_presentation_fused, 6u);
}

TEST(PresentationPipeline, LwtsIdentityFusionDeliversDecodableRecords) {
  // LWTS on a little-endian host: the wire IS host order, the fused stage
  // is the identity, and the plan still routes the whole delivery path.
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kLwts;
  RecordSchema schema{"mixed",
                      {FieldType::kInt32, FieldType::kInt64, FieldType::kString,
                       FieldType::kInt32Array}};
  PlanPair p(scfg, schema, /*attach=*/true);
  ASSERT_EQ(p.plan->wire_stage(), PresentStage::kIdentity);

  Record rec{std::int32_t{-7}, std::int64_t{1} << 50, std::string("lwts"),
             std::vector<std::int32_t>{9, 8, 7}};
  ASSERT_TRUE(p.sender.send_record(generic_name(0), *p.plan, rec).ok());
  p.sender.finish();
  p.loop.run();

  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.receiver.stats().adus_presentation_fused, 1u);
  auto back =
      presentation::plan_decode_host_order(*p.plan, p.delivered[0].payload.span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rec);
}

// ---- chain path (zero-copy) ------------------------------------------------

TEST(PresentationPipeline, ChainPathSwapsAcrossSegmentBoundaries) {
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  buf::BufferPool pool;
  PlanPair p(scfg, table1_schema(), /*attach=*/true, &pool);
  p.receiver.set_on_adu_chain(
      [&](AduChain&& a) { p.chains.push_back(std::move(a)); });

  // Big arrays → multi-fragment ADUs → the fused byteswap straddles
  // segment boundaries (the chain kernel's hard case).
  const std::size_t kElems = 3000;
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto wire = presentation::plan_encode(*p.plan, table1_record(kElems, 50 + i));
    ASSERT_TRUE(wire.ok());
    buf::BufRef ref = pool.alloc(wire->size());
    std::memcpy(ref.data(), wire->data(), wire->size());
    ASSERT_TRUE(
        p.sender.send_adu(generic_name(i), buf::Slice{std::move(ref), 0,
                                                      wire->size()})
            .ok());
  }
  p.sender.finish();
  p.loop.run();

  ASSERT_EQ(p.chains.size(), 5u);
  EXPECT_EQ(p.receiver.stats().adus_presentation_fused, 5u);
  for (const auto& c : p.chains) {
    EXPECT_GT(c.payload.segment_count(), 1u);
    const ByteBuffer host = c.payload.flatten();
    auto rec = presentation::plan_decode_host_order(*p.plan, host.span());
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    EXPECT_EQ(*rec, table1_record(kElems, 50 + c.name.a));
  }
}

TEST(PresentationPipeline, EncryptedChainPathMatchesFlat) {
  // Same encrypted transfer twice — over a link with no pool wired (the
  // default pool) and over a pooled one — with the plan fused on both:
  // identical host-order bytes whichever pool the segments came from.
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  scfg.encrypt = true;
  scfg.key = test_key();

  auto run = [&](buf::BufferPool* pool) {
    std::map<std::uint64_t, ByteBuffer> out;
    PlanPair p(scfg, table1_schema(), /*attach=*/true, pool);
    p.receiver.set_on_adu_chain(
        [&](AduChain&& a) { out[a.name.a] = a.payload.flatten(); });
    p.run_records(6, 1200);
    for (auto& adu : p.delivered) out[adu.name.a] = std::move(adu.payload);
    return out;
  };

  auto flat = run(nullptr);
  buf::BufferPool pool;
  auto pooled = run(&pool);
  ASSERT_EQ(flat.size(), 6u);
  ASSERT_EQ(pooled.size(), 6u);
  for (const auto& [ordinal, bytes] : flat) {
    EXPECT_EQ(pooled.at(ordinal), bytes) << "ADU " << ordinal;
  }
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

// ---- engine offload path ---------------------------------------------------

TEST(PresentationPipeline, EngineOffloadCarriesTheFusedStage) {
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  engine::Engine eng;  // workers = 0: inline, deterministic
  PlanPair p(scfg, table1_schema(), /*attach=*/true);
  p.receiver.set_engine(&eng);

  p.run_records(9, 700);
  ASSERT_EQ(p.delivered.size(), 9u);
  EXPECT_EQ(p.receiver.stats().adus_engine_offloaded, 9u);
  EXPECT_EQ(p.receiver.stats().adus_presentation_fused, 9u);
  for (const auto& adu : p.delivered) {
    auto rec = presentation::plan_decode_host_order(*p.plan, adu.payload.span());
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    EXPECT_EQ(*rec, table1_record(700, adu.name.a));
  }
}

TEST(PresentationPipeline, ThreadedEngineChainJobsSwapCorrectly) {
  // Worker threads + pooled chains + encryption: the full live-traffic
  // shape. TSan lane covers the cross-thread handoff.
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  scfg.encrypt = true;
  scfg.key = test_key();
  engine::Engine eng(engine::EngineConfig{.workers = 2});
  buf::BufferPool pool;
  PlanPair p(scfg, table1_schema(), /*attach=*/true, &pool);
  p.receiver.set_engine(&eng, 1 * kMillisecond);
  std::map<std::uint64_t, ByteBuffer> out;
  p.receiver.set_on_adu_chain(
      [&](AduChain&& a) { out[a.name.a] = a.payload.flatten(); });

  p.run_records(12, 1500);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(p.receiver.stats().adus_presentation_fused, 12u);
  for (const auto& [ordinal, host] : out) {
    auto rec = presentation::plan_decode_host_order(*p.plan, host.span());
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    EXPECT_EQ(*rec, table1_record(1500, ordinal));
  }
}

// ---- sessiond wiring -------------------------------------------------------

TEST(PresentationPipeline, SessiondOpenAttachesThePlan) {
  EventLoop loop;
  DuplexChannel channel(loop, fast_link());
  LinkPath data(channel.forward);
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);

  sessiond::Sessiond daemon(loop);
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  auto plan = presentation::cached_plan(table1_schema(), scfg.syntax);
  sessiond::OpenOptions opts;
  opts.attach.presentation = plan;
  auto handle = daemon.open(scfg, {&data, &feedback_tx, &feedback_rx}, opts);
  ASSERT_TRUE(handle.ok());

  std::vector<Adu> got;
  handle.value()->set_on_adu([&](Adu&& a) { got.push_back(std::move(a)); });
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(handle.value()->sender()
                    .send_record(generic_name(i), *plan, table1_record(256, i))
                    .ok());
  }
  handle.value()->sender().finish();
  loop.run();

  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(handle.value()->receiver().stats().adus_presentation_fused, 4u);
  for (const auto& adu : got) {
    auto rec = presentation::plan_decode_host_order(*plan, adu.payload.span());
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, table1_record(256, adu.name.a));
  }
}

TEST(PresentationPipeline, SupervisedOpenAttachesThePlan) {
  EventLoop loop;
  DuplexChannel channel(loop, fast_link());
  LinkPath data(channel.forward);
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);

  sessiond::Sessiond daemon(loop);
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  auto plan = presentation::cached_plan(table1_schema(), scfg.syntax);
  sessiond::OpenOptions opts;
  opts.supervisor.emplace();
  opts.attach.presentation = plan;
  auto handle = daemon.open(scfg, {&data, &feedback_tx, &feedback_rx}, opts);
  ASSERT_TRUE(handle.ok());

  std::vector<Adu> got;
  handle.value()->set_on_adu([&](Adu&& a) { got.push_back(std::move(a)); });
  ASSERT_TRUE(handle.value()->sender()
                  .send_record(generic_name(0), *plan, table1_record(512, 3))
                  .ok());
  handle.value()->sender().finish();
  loop.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(handle.value()->receiver().stats().adus_presentation_fused, 1u);
  auto rec = presentation::plan_decode_host_order(*plan, got[0].payload.span());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, table1_record(512, 3));
}

// ---- sender-side fusion ----------------------------------------------------

TEST(PresentationPipeline, SendRecordSkipsTheStagingCopy) {
  // send_record marshals straight into the wire buffer; the classic shape
  // (encode, then send_adu) pays the same encode PLUS a staging copy. The
  // saving is exactly one store pass over the payload.
  SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  const auto plan = presentation::cached_plan(table1_schema(), scfg.syntax);
  const Record rec = table1_record(2048, 1);

  PlanPair classic(scfg, table1_schema(), /*attach=*/false);
  obs::CostAccount app_encode;
  auto wire = presentation::plan_encode(*plan, rec, &app_encode);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(classic.sender.send_adu(generic_name(0), wire->span()).ok());

  PlanPair fused(scfg, table1_schema(), /*attach=*/false);
  ASSERT_TRUE(fused.sender.send_record(generic_name(0), *plan, rec).ok());

  const std::uint64_t classic_stores =
      app_encode.word_stores + classic.sender.manipulation_cost().word_stores;
  const std::uint64_t fused_stores = fused.sender.manipulation_cost().word_stores;
  EXPECT_EQ(fused_stores + obs::CostAccount::words(wire->size()), classic_stores);
}

// ---- unit-level: the executor itself, across tiers -------------------------

/// `bytes` as a chain of one pool segment, the shape a one-fragment ADU
/// reaches the executor in.
buf::BufChain one_segment(buf::BufferPool& pool, ConstBytes bytes) {
  buf::BufRef ref = pool.alloc(bytes.size());
  std::memcpy(ref.data(), bytes.data(), bytes.size());
  buf::BufChain chain;
  chain.append(buf::Slice{std::move(ref), 0, bytes.size()});
  return chain;
}

// DESIGN §13.4, contract 1, as the executor states it: a present stage
// adds no pass and no load to the plan's pass, only the swap's own store
// per word, because the bare verify it is compared with is load-only.
TEST(PresentationPipeline, ManipulationLedgerIsPresentStageInvariantEveryTier) {
  const auto schema = table1_schema();
  const auto plan = presentation::compile_plan(schema, TransferSyntax::kXdr);
  const Record rec = table1_record(999, 77);
  auto wire = presentation::plan_encode(plan, rec);
  ASSERT_TRUE(wire.ok());
  buf::BufferPool pool;

  const simd::KernelTier initial = simd::active_tier();
  for (std::size_t t = 0; t < simd::kKernelTierCount; ++t) {
    const auto tier = static_cast<simd::KernelTier>(t);
    if (simd::tier_table(tier) == nullptr) continue;
    ASSERT_TRUE(simd::set_active_tier(tier));

    ManipulationPlan base;
    base.expected_checksum = compute_checksum(ChecksumKind::kInternet, wire->span());

    buf::BufChain plain = one_segment(pool, wire->span());
    obs::CostAccount plain_cost;
    ManipulationPlan no_present = base;
    ASSERT_TRUE(run_manipulation_chain(no_present, plain, &plain_cost));

    buf::BufChain swapped = one_segment(pool, wire->span());
    obs::CostAccount fused_cost;
    ManipulationPlan with_present = base;
    with_present.present = PresentStage::kSwap32;
    ASSERT_TRUE(run_manipulation_chain(with_present, swapped, &fused_cost));

    // Same pass, same loads, at every tier; the stores are the swap's.
    EXPECT_EQ(fused_cost.memory_passes, plain_cost.memory_passes) << "tier " << t;
    EXPECT_EQ(fused_cost.word_loads, plain_cost.word_loads) << "tier " << t;
    EXPECT_EQ(plain_cost.word_stores, 0u) << "tier " << t;
    EXPECT_EQ(fused_cost.word_stores, obs::CostAccount::words(wire->size()))
        << "tier " << t;

    // And the fused buffer really is host order.
    const ByteBuffer host_bytes = swapped.flatten();
    auto host = presentation::plan_decode_host_order(plan, host_bytes.span());
    ASSERT_TRUE(host.ok()) << "tier " << t;
    EXPECT_EQ(*host, rec) << "tier " << t;
    EXPECT_EQ(plain.flatten(), *wire) << "tier " << t;  // no stage → untouched
  }
  ASSERT_TRUE(simd::set_active_tier(initial));
}

}  // namespace
}  // namespace ngp::alf
