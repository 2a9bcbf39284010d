// Adversarial / edge-case coverage: malformed and inconsistent inputs,
// replay, session demux, resource-bound enforcement, and API misuse that
// must degrade gracefully. Shared path doubles live in test_paths.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "buf/ingress.h"
#include "buf/pool.h"
#include "engine/engine.h"
#include "netsim/link.h"
#include "netsim/net_path.h"
#include "transport/stream_sender.h"
#include "transport/stream_receiver.h"
#include "util/rng.h"

#include "test_paths.h"

namespace ngp::alf {
namespace {

using ngp::test::LoopbackPath;
using ngp::test::SinkPath;
using ngp::test::make_fragment;
using ngp::test::ReceiverFixture;

TEST(ReceiverRobustness, WholeAduViaLoopback) {
  ReceiverFixture fx;
  auto payload = ByteBuffer::from_string("complete in one fragment");
  auto f = make_fragment(1, 1, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  fx.inject(f);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_EQ(fx.delivered[0].payload, payload);
}

TEST(ReceiverRobustness, WrongSessionIgnored) {
  ReceiverFixture fx;  // session_id 1
  auto payload = ByteBuffer::from_string("foreign session");
  auto f = make_fragment(2, 1, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  fx.inject(f);
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_received, 0u);
}

TEST(ReceiverRobustness, InconsistentAduLenIgnored) {
  ReceiverFixture fx;
  ByteBuffer full(2000);
  Rng rng(1);
  rng.fill(full.span());
  const auto ck = internet_checksum_unrolled(full.span());

  // First fragment establishes a 2000-byte ADU.
  auto f1 = make_fragment(1, 1, full.subspan(0, 1000), 2000, 0);
  f1.adu_checksum = ck;
  fx.inject(f1);
  // A stray fragment claims the same ADU is 5000 bytes: must be ignored,
  // not corrupt or grow the reassembly buffer.
  auto bogus = make_fragment(1, 1, full.subspan(0, 1000), 5000, 4000);
  fx.inject(bogus);
  EXPECT_TRUE(fx.delivered.empty());

  // The consistent second half completes the ADU intact.
  auto f2 = make_fragment(1, 1, full.subspan(1000, 1000), 2000, 1000);
  f2.adu_checksum = ck;
  fx.inject(f2);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_EQ(fx.delivered[0].payload, full);
}

TEST(ReceiverRobustness, ReplayAfterDeliveryCounted) {
  ReceiverFixture fx;
  auto payload = ByteBuffer::from_string("replayed payload");
  auto f = make_fragment(1, 1, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  fx.inject(f);
  fx.inject(f);
  fx.inject(f);
  EXPECT_EQ(fx.delivered.size(), 1u);  // exactly once
  EXPECT_EQ(fx.receiver->stats().fragments_for_done_adus, 2u);
}

TEST(ReceiverRobustness, DuplicateFragmentBeforeCompletionCounted) {
  ReceiverFixture fx;
  ByteBuffer full(3000);
  Rng rng(3);
  rng.fill(full.span());
  const auto ck = internet_checksum_unrolled(full.span());
  auto f1 = make_fragment(1, 1, full.subspan(0, 1500), 3000, 0);
  f1.adu_checksum = ck;
  fx.inject(f1);
  fx.inject(f1);  // duplicate while incomplete
  EXPECT_EQ(fx.receiver->stats().fragments_duplicate, 1u);
  auto f2 = make_fragment(1, 1, full.subspan(1500, 1500), 3000, 1500);
  f2.adu_checksum = ck;
  fx.inject(f2);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_EQ(ByteBuffer(fx.delivered[0].payload.span()), ByteBuffer(full.span()));
}

TEST(ReceiverRobustness, OverlappingFragmentsMergeCorrectly) {
  ByteBuffer full(1000);
  Rng rng(4);
  rng.fill(full.span());
  const auto ck = internet_checksum_unrolled(full.span());
  // Overlapping pieces [0,600), [400,900) and [700,1000), plus [200,500),
  // which lies wholly inside bytes already placed. Two inputs: by copy (a
  // loopback frame lies in no pool segment) and by reference (each frame
  // sits in a pool segment published as the ingress frame, as a Link
  // publishes it).
  for (const bool by_ref : {false, true}) {
    SCOPED_TRACE(by_ref ? "by reference" : "by copy");
    ReceiverFixture fx;
    for (auto [off, len] : {std::pair<std::size_t, std::size_t>{0, 600},
                            {400, 500},
                            {200, 300},
                            {700, 300}}) {
      auto f = make_fragment(1, 1, full.subspan(off, len), 1000,
                             static_cast<std::uint32_t>(off));
      f.adu_checksum = ck;
      if (!by_ref) {
        fx.inject(f);
        continue;
      }
      const ByteBuffer wire = encode_fragment(f);
      buf::Slice frame{buf::default_pool().alloc(wire.size()), 0, wire.size()};
      std::memcpy(frame.mutable_bytes().data(), wire.data(), wire.size());
      buf::IngressFrame scope(frame);
      fx.receiver->handle_frame(frame.bytes());
    }
    ASSERT_EQ(fx.delivered.size(), 1u);
    EXPECT_EQ(fx.delivered[0].payload, full);
    const ReceiverStats& st = fx.receiver->stats();
    EXPECT_EQ(st.fragments_duplicate, 1u);
    EXPECT_EQ(st.fragments_zero_copy, by_ref ? 3u : 0u);
    EXPECT_EQ(st.fragments_pool_copied, by_ref ? 0u : 3u);
  }
}

TEST(ReceiverRobustness, GarbageFramesOnlyBumpCorruptCounter) {
  ReceiverFixture fx;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    ByteBuffer junk(rng.uniform(200));
    rng.fill(junk.span());
    fx.data.send(junk.span());
  }
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_corrupt, 100u);
}

TEST(ReceiverRobustness, AbandonsNeverSeenAduAfterMaxNacks) {
  SessionConfig cfg;
  cfg.max_nacks = 3;
  cfg.nack_delay = 10 * kMillisecond;
  cfg.nack_retry = 10 * kMillisecond;
  ReceiverFixture fx(cfg);
  std::vector<std::pair<std::uint32_t, bool>> losses;
  fx.receiver->set_on_adu_lost(
      [&](std::uint32_t id, const AduName&, bool known) { losses.emplace_back(id, known); });

  // Deliver ADU 2 only; ADU 1 is a pure gap (never seen).
  auto payload = ByteBuffer::from_string("the one that made it");
  auto f = make_fragment(1, 2, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  fx.inject(f);

  // Run long enough for the exponential backoff to exhaust 3 NACKs:
  // 10 + 20 + 40 ms of waits plus scan cadence.
  fx.loop.run_until(2 * kSecond);
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_EQ(losses[0].first, 1u);
  EXPECT_FALSE(losses[0].second);  // name never learned
  EXPECT_GE(fx.feedback.frames.size(), 3u);  // NACKs went out
}

TEST(ReceiverRobustness, ZeroLengthFragmentRejectedByWire) {
  // adu_len 0 with an empty payload: wire-valid? The sender never emits
  // it (empty ADUs are rejected at send_adu); if it appears, reassembly
  // must not divide by zero or deliver an empty ADU spuriously.
  ReceiverFixture fx;
  auto f = make_fragment(1, 1, {}, 0, 0);
  fx.inject(f);
  // With adu_len 0 and no bytes, coverage 0 == adu_len 0 -> it would
  // "complete" immediately with an empty payload and pass the (empty)
  // checksum. Accept either outcome but require no crash and at most one
  // delivery of an empty ADU.
  EXPECT_LE(fx.delivered.size(), 1u);
  if (!fx.delivered.empty()) {
    EXPECT_TRUE(fx.delivered[0].payload.empty());
  }
}

// ---- Hardened receive path: resource bounds and the stall watchdog ----

TEST(ReceiverHardening, ForgedHugeAduLenAllocatesNothing) {
  // The acceptance case: a fragment claiming adu_len 2^31 passes the wire
  // decoder (its offsets are internally consistent) but must be refused
  // before a single byte of reassembly buffer is allocated.
  ReceiverFixture fx;
  ByteBuffer bait(64);
  Rng rng(7);
  rng.fill(bait.span());
  auto f = make_fragment(1, 1, bait.span(), 0x80000000u, 0);
  fx.inject(f);
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_oversized, 1u);
  EXPECT_EQ(fx.receiver->stats().fragments_corrupt, 1u);
  EXPECT_EQ(fx.receiver->stats().reassembly_bytes_peak, 0u);
}

TEST(ReceiverHardening, ClaimAboveConfiguredMaxRefused) {
  SessionConfig cfg;
  cfg.max_adu_len = 4096;
  ReceiverFixture fx(cfg);
  ByteBuffer piece(100);
  auto f = make_fragment(1, 1, piece.span(), 8192, 0);
  fx.inject(f);
  EXPECT_EQ(fx.receiver->stats().fragments_oversized, 1u);
  EXPECT_EQ(fx.receiver->stats().reassembly_bytes_peak, 0u);
  // An honest claim under the cap still reassembles.
  ByteBuffer ok = ByteBuffer::from_string("fits under the cap");
  auto g = make_fragment(1, 2, ok.span(), static_cast<std::uint32_t>(ok.size()), 0);
  g.adu_checksum = internet_checksum_unrolled(ok.span());
  fx.inject(g);
  ASSERT_EQ(fx.delivered.size(), 1u);
}

TEST(ReceiverHardening, FarFutureAduIdOutsideWindowRefused) {
  SessionConfig cfg;
  cfg.adu_id_window = 100;
  ReceiverFixture fx(cfg);
  ByteBuffer piece(16);
  auto f = make_fragment(1, 5000, piece.span(), 16, 0);
  f.adu_checksum = internet_checksum_unrolled(piece.span());
  fx.inject(f);
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_out_of_window, 1u);
  // Nothing was learned from it: no reassembly state, no NACK bookkeeping
  // stretching toward id 5000.
  EXPECT_EQ(fx.receiver->stats().reassembly_bytes_peak, 0u);
}

TEST(ReceiverHardening, AduChecksumVerdictReadsAll32Bits) {
  // adu_checksum is a 32-bit field and an Internet sum is 16 bits wide. A
  // header that claims the right sum with bit 16 set does not match it,
  // and both process modes must reject the ADU.
  ByteBuffer payload(1000);
  Rng rng(9);
  rng.fill(payload.span());
  for (ProcessMode mode : {ProcessMode::kIntegrated, ProcessMode::kLayered}) {
    SessionConfig cfg;
    cfg.process_mode = mode;
    ReceiverFixture fx(cfg);
    auto f = make_fragment(1, 1, payload.span(), 1000, 0);
    f.adu_checksum = internet_checksum_unrolled(payload.span()) | 0x10000u;
    fx.inject(f);
    const int m = static_cast<int>(mode);
    EXPECT_TRUE(fx.delivered.empty()) << "mode " << m;
    EXPECT_EQ(fx.receiver->stats().adus_checksum_failed, 1u) << "mode " << m;
  }
}

TEST(ReceiverHardening, MemoryPressureEvictsOldestIncomplete) {
  SessionConfig cfg;
  cfg.reassembly_bytes_limit = 10000;
  ReceiverFixture fx(cfg);
  ByteBuffer full(8000);
  Rng rng(8);
  rng.fill(full.span());
  const auto ck = internet_checksum_unrolled(full.span());

  // ADU 1: first half only — 8000 bytes charged, incomplete.
  auto f1 = make_fragment(1, 1, full.subspan(0, 4000), 8000, 0);
  f1.adu_checksum = ck;
  fx.inject(f1);
  EXPECT_EQ(fx.receiver->stats().reassembly_bytes_peak, 8000u);

  // ADU 2 needs another 8000: over the 10000 cap, so ADU 1 (oldest
  // incomplete) is evicted to make room.
  auto f2 = make_fragment(1, 2, full.subspan(0, 4000), 8000, 0);
  f2.adu_checksum = ck;
  fx.inject(f2);
  EXPECT_EQ(fx.receiver->stats().reassembly_evictions, 1u);
  EXPECT_LE(fx.receiver->stats().reassembly_bytes_peak, cfg.reassembly_bytes_limit);

  // Both ADUs still complete once their bytes (re)arrive: eviction reclaims
  // memory, not correctness — the id stays recoverable.
  auto f2b = make_fragment(1, 2, full.subspan(4000, 4000), 8000, 4000);
  f2b.adu_checksum = ck;
  fx.inject(f2b);
  auto f1a = make_fragment(1, 1, full.subspan(0, 4000), 8000, 0);
  f1a.adu_checksum = ck;
  auto f1b = make_fragment(1, 1, full.subspan(4000, 4000), 8000, 4000);
  f1b.adu_checksum = ck;
  fx.inject(f1a);
  fx.inject(f1b);
  ASSERT_EQ(fx.delivered.size(), 2u);
  EXPECT_EQ(fx.delivered[0].payload, full);
  EXPECT_EQ(fx.delivered[1].payload, full);
  EXPECT_LE(fx.receiver->stats().reassembly_bytes_peak, cfg.reassembly_bytes_limit);
}

/// NACK frames recorded by `sink` (from frame index `from` on) that name
/// `adu_id`.
int nacks_naming(const SinkPath& sink, std::uint32_t adu_id, std::size_t from = 0) {
  int n = 0;
  for (std::size_t i = from; i < sink.frames.size(); ++i) {
    const auto msg = decode_message(sink.frames[i].span());
    if (msg && msg->type == MessageType::kNack &&
        std::find(msg->nack.adu_ids.begin(), msg->nack.adu_ids.end(), adu_id) !=
            msg->nack.adu_ids.end()) {
      ++n;
    }
  }
  return n;
}

TEST(ReceiverHardening, MemoryPressureEvictsOnlyAPartialAdu) {
  // The eviction victim is the oldest PARTIAL ADU. Older ids in every other
  // state are passed over: a missing id (NACKed, no bytes held), a closed
  // id above the hole, and an ADU verifying on the engine.
  engine::Engine eng;
  SessionConfig cfg;
  cfg.reassembly_bytes_limit = 10000;
  cfg.nack_delay = 10 * kMillisecond;
  cfg.nack_retry = 10 * kMillisecond;
  ReceiverFixture fx(cfg);
  fx.receiver->set_engine(&eng, 50 * kMillisecond);
  ByteBuffer full(8000);
  Rng(8).fill(full.span());
  auto whole = [&](std::uint32_t id) {
    auto f = make_fragment(1, id, full.subspan(0, 500), 500, 0);
    f.adu_checksum = internet_checksum_unrolled(full.subspan(0, 500));
    fx.inject(f);
  };
  auto first_half = [&](std::uint32_t id) {
    auto f = make_fragment(1, id, full.subspan(0, 4000), 8000, 0);
    f.adu_checksum = internet_checksum_unrolled(full.span());
    fx.inject(f);
  };

  // Id 2 arrives whole: the scan NACKs id 1 while id 2 verifies, and the
  // harvest delivers id 2, closed above the hole.
  whole(2);
  fx.loop.run_until(60 * kMillisecond);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_GT(nacks_naming(fx.feedback, 1), 0);

  // Id 3 completes and verifies on the engine; id 4 holds 4,000 of 8,000.
  whole(3);
  first_half(4);
  EXPECT_EQ(fx.receiver->stats().adus_engine_offloaded, 2u);
  EXPECT_EQ(fx.receiver->stats().reassembly_evictions, 0u);

  // Id 5 needs 8,000 more: only id 4 may make room.
  first_half(5);
  EXPECT_EQ(fx.receiver->stats().reassembly_evictions, 1u);
  EXPECT_EQ(fx.receiver->stats().fragments_dropped_mem, 0u);
  EXPECT_LE(fx.receiver->stats().reassembly_bytes_peak, cfg.reassembly_bytes_limit);
  const std::size_t frames_at_evict = fx.feedback.frames.size();

  fx.loop.run_until(200 * kMillisecond);
  std::map<std::uint64_t, int> delivered;
  for (const Adu& a : fx.delivered) ++delivered[a.name.a];
  EXPECT_EQ(delivered, (std::map<std::uint64_t, int>{{2, 1}, {3, 1}}));
  // Ids 1 and 4 stay open: the scan keeps naming them.
  EXPECT_GT(nacks_naming(fx.feedback, 1, frames_at_evict), 0);
  EXPECT_GT(nacks_naming(fx.feedback, 4, frames_at_evict), 0);
  EXPECT_EQ(fx.receiver->stats().adus_abandoned, 0u);
}

TEST(ReceiverHardening, AduLargerThanWholeBudgetDropped) {
  SessionConfig cfg;
  cfg.reassembly_bytes_limit = 1000;
  ReceiverFixture fx(cfg);
  ByteBuffer piece(100);
  auto f = make_fragment(1, 1, piece.span(), 5000, 0);
  fx.inject(f);
  EXPECT_EQ(fx.receiver->stats().fragments_dropped_mem, 1u);
  EXPECT_EQ(fx.receiver->stats().reassembly_bytes_peak, 0u);
}

TEST(ReceiverHardening, TinyFragmentsOverALinkPinNoMoreThanTheLimit) {
  // A link lands every frame in a pool segment and the receiver links the
  // fragment by reference, so a 1-byte fragment pins its frame's whole
  // segment. reassembly_bytes_limit must bound that pinned pool memory,
  // not just the adu_len the headers claim.
  buf::BufferPool pool(buf::PoolConfig{.size_classes = {512}});
  SessionConfig cfg;
  cfg.max_adu_len = 16 << 10;
  cfg.reassembly_bytes_limit = 64 << 10;
  cfg.nack_delay = 3600 * kSecond;  // no NACK abandons mid-attack
  cfg.stall_timeout = 0;
  EventLoop loop;
  Link link(loop, LinkConfig{});
  link.set_rx_pool(&pool);
  LinkPath data(link);
  SinkPath feedback;
  AlfReceiver receiver(loop, data, feedback, cfg);
  receiver.set_rx_pool(&pool);

  // Four ADUs whose claims exactly fill the limit, one byte at every other
  // offset of their first KiB, interleaved: 2,048 frames that would pin
  // 1 MiB of 512-byte segments if only the claims were charged.
  const std::uint8_t byte = 0x5a;
  std::uint64_t peak_live = 0;
  for (std::uint32_t off = 0; off < 1024; off += 2) {
    for (std::uint32_t id = 1; id <= 4; ++id) {
      ByteBuffer frame =
          encode_fragment(make_fragment(1, id, ConstBytes{&byte, 1}, 16 << 10, off));
      ASSERT_TRUE(link.send(frame.span()));
    }
    loop.run_until(loop.now() + 5 * kMillisecond);  // every frame has landed
    peak_live = std::max(peak_live, pool.stats().segments_live);
  }
  EXPECT_EQ(pool.stats().heap_fallbacks, 0u);
  EXPECT_GT(receiver.stats().fragments_zero_copy, 0u);
  EXPECT_LE(peak_live * 512, cfg.reassembly_bytes_limit);
  EXPECT_LE(receiver.stats().reassembly_bytes_peak, cfg.reassembly_bytes_limit);
  EXPECT_GT(receiver.stats().fragments_dropped_mem + receiver.stats().reassembly_evictions,
            0u);
}

TEST(ReceiverHardening, TinyCopiedFragmentsShareTheAdusCopyBlocks) {
  // A loopback hands over plain buffers, so every fragment is copied — into
  // per-ADU blocks at fixed offsets, which scattered 1-byte fragments
  // share instead of taking a segment each.
  buf::BufferPool pool(buf::PoolConfig{.size_classes = {2048}});
  SessionConfig cfg;
  cfg.max_adu_len = 16 << 10;
  cfg.reassembly_bytes_limit = 64 << 10;
  cfg.nack_delay = 3600 * kSecond;
  cfg.stall_timeout = 0;
  ReceiverFixture fx(cfg);
  fx.receiver->set_rx_pool(&pool);
  const std::uint8_t byte = 0x5a;
  for (std::uint32_t off = 0; off < (16 << 10); off += 64) {
    for (std::uint32_t id = 1; id <= 4; ++id) {
      fx.inject(make_fragment(1, id, ConstBytes{&byte, 1}, 16 << 10, off));
    }
  }
  // 1,024 copies; the four ADUs pin eight 2 KiB blocks each — exactly
  // their claims, so nothing beyond the claims was charged.
  EXPECT_EQ(fx.receiver->stats().fragments_pool_copied, 1024u);
  EXPECT_EQ(pool.stats().segments_live, 32u);
  EXPECT_EQ(fx.receiver->stats().reassembly_bytes_peak, 4u * (16 << 10));
}

TEST(ReceiverHardening, StallWatchdogAbandonsDeadSession) {
  SessionConfig cfg;
  cfg.stall_timeout = 200 * kMillisecond;
  cfg.max_nacks = 2;
  cfg.nack_delay = 10 * kMillisecond;
  cfg.nack_retry = 10 * kMillisecond;
  ReceiverFixture fx(cfg);
  int failures = 0;
  fx.receiver->set_on_session_failed([&] { ++failures; });

  // Half an ADU arrives, then the substrate goes dark. Without the
  // watchdog the progress heartbeat would tick forever; with it, run()
  // terminates — "watchdog or completion always fires".
  ByteBuffer full(2000);
  Rng rng(9);
  rng.fill(full.span());
  auto f = make_fragment(1, 1, full.subspan(0, 1000), 2000, 0);
  f.adu_checksum = internet_checksum_unrolled(full.span());
  fx.inject(f);
  fx.loop.run();

  EXPECT_TRUE(fx.receiver->failed());
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(fx.receiver->stats().watchdog_fired, 1u);
  EXPECT_TRUE(fx.delivered.empty());
  // A failed session holds no memory and ignores late frames.
  fx.inject(f);
  EXPECT_EQ(fx.receiver->stats().watchdog_fired, 1u);
  EXPECT_TRUE(fx.delivered.empty());
}

TEST(SenderHardening, DeadFeedbackChannelTriggersFallback) {
  EventLoop loop;
  SinkPath data_out;       // fragments vanish downstream
  LoopbackPath feedback;   // nothing ever speaks on it
  SessionConfig cfg;
  cfg.stall_timeout = 200 * kMillisecond;
  AlfSender sender(loop, data_out, feedback, cfg);
  int failures = 0;
  sender.set_on_session_failed([&] { ++failures; });

  ByteBuffer payload(4096);
  Rng rng(10);
  rng.fill(payload.span());
  ASSERT_TRUE(sender.send_adu(generic_name(1), payload.span()).ok());
  sender.finish();
  loop.run();  // terminates: the watchdog bounds the DONE-ack wait

  EXPECT_TRUE(sender.failed());
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(sender.stats().watchdog_fired, 1u);
  EXPECT_EQ(sender.stats().retransmit_buffer_bytes, 0u);
  // Further sends are refused instead of silently buffered.
  EXPECT_FALSE(sender.send_adu(generic_name(2), payload.span()).ok());
}

TEST(SenderHardening, LiveFeedbackNeverTripsWatchdog) {
  EventLoop loop;
  LoopbackPath data;
  LoopbackPath feedback;
  SessionConfig cfg;
  cfg.stall_timeout = 150 * kMillisecond;
  AlfSender sender(loop, data, feedback, cfg);
  AlfReceiver receiver(loop, data, feedback, cfg);
  int delivered = 0;
  receiver.set_on_adu([&](Adu&&) { ++delivered; });

  ByteBuffer payload(1000);
  Rng rng(11);
  rng.fill(payload.span());
  ASSERT_TRUE(sender.send_adu(generic_name(1), payload.span()).ok());
  sender.finish();
  loop.run();

  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(sender.failed());
  EXPECT_FALSE(receiver.failed());
  EXPECT_TRUE(receiver.complete());
  EXPECT_EQ(sender.stats().watchdog_fired, 0u);
  EXPECT_EQ(receiver.stats().watchdog_fired, 0u);
}

TEST(ReceiverHardening, NackBookkeepingErasedOnClose) {
  // Regression guard for the nack_counts_ leak: once an id closes, its
  // never-seen bookkeeping must go with it (observable as no further NACKs
  // for it after abandonment).
  SessionConfig cfg;
  cfg.max_nacks = 2;
  cfg.nack_delay = 10 * kMillisecond;
  cfg.nack_retry = 10 * kMillisecond;
  cfg.stall_timeout = kSecond;
  ReceiverFixture fx(cfg);
  ByteBuffer payload = ByteBuffer::from_string("id 2 arrives, id 1 never");
  auto f = make_fragment(1, 2, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  fx.inject(f);
  fx.loop.run_until(500 * kMillisecond);
  const auto nacks_after_abandon = fx.receiver->stats().nacks_sent;
  fx.loop.run_until(900 * kMillisecond);
  EXPECT_EQ(fx.receiver->stats().nacks_sent, nacks_after_abandon);
}

}  // namespace
}  // namespace ngp::alf

namespace ngp {
namespace {

TEST(StreamSenderRobustness, SendAfterCloseReturnsZero) {
  EventLoop loop;
  LinkConfig cfg;
  DuplexChannel ch(loop, cfg);
  LinkPath data(ch.forward), ack_tx(ch.reverse), ack_rx(ch.reverse);
  StreamSender sender(loop, data, ack_rx);
  StreamReceiver receiver(loop, data, ack_tx);
  auto bytes = ByteBuffer::from_string("before close");
  EXPECT_EQ(sender.send(bytes.span()), bytes.size());
  sender.close();
  EXPECT_EQ(sender.send(bytes.span()), 0u);
  loop.run();
  EXPECT_TRUE(sender.finished());
}

TEST(StreamSenderRobustness, DoubleCloseHarmless) {
  EventLoop loop;
  LinkConfig cfg;
  DuplexChannel ch(loop, cfg);
  LinkPath data(ch.forward), ack_tx(ch.reverse), ack_rx(ch.reverse);
  StreamSender sender(loop, data, ack_rx);
  StreamReceiver receiver(loop, data, ack_tx);
  sender.close();
  sender.close();
  loop.run();
  EXPECT_TRUE(sender.finished());
  EXPECT_TRUE(receiver.closed());
}

TEST(StreamSenderRobustness, EmptySendAccepted) {
  EventLoop loop;
  LinkConfig cfg;
  DuplexChannel ch(loop, cfg);
  LinkPath data(ch.forward), ack_tx(ch.reverse), ack_rx(ch.reverse);
  StreamSender sender(loop, data, ack_rx);
  StreamReceiver receiver(loop, data, ack_tx);
  EXPECT_EQ(sender.send({}), 0u);
  sender.close();
  loop.run();
  EXPECT_TRUE(sender.finished());
}

}  // namespace
}  // namespace ngp

// ---- Recovery discipline (DESIGN.md §10): timer safety, exactly-once -------

namespace ngp::alf {
namespace {

using ngp::test::LoopbackPath;
using ngp::test::SinkPath;
using ngp::test::make_fragment;
using ngp::test::ReceiverFixture;

/// Feedback sink that also timestamps every frame (for NACK-cadence pins).
class TimedSink final : public NetPath {
 public:
  explicit TimedSink(EventLoop& loop) : loop_(loop) {}
  bool send(ConstBytes frame) override {
    frames.emplace_back(loop_.now(), ByteBuffer(frame));
    return true;
  }
  void set_handler(FrameHandler) override {}
  std::size_t max_frame_size() const override { return 65535; }

  std::vector<std::pair<SimTime, ByteBuffer>> frames;

 private:
  EventLoop& loop_;
};

/// NACK frames (with timestamps) extracted from a TimedSink capture.
std::vector<SimTime> nack_times(const TimedSink& sink) {
  std::vector<SimTime> times;
  for (const auto& [at, frame] : sink.frames) {
    auto msg = decode_message(frame.span());
    if (msg && msg->type == MessageType::kNack) times.push_back(at);
  }
  return times;
}

SessionConfig jitter_config(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.nack_delay = 5 * kMillisecond;
  cfg.nack_retry = 10 * kMillisecond;
  // NACK sends are quantized to the nack_retry scan grid, so the jitter
  // span must exceed one scan period to be observable: cap 80ms with
  // jitter 1.0 draws up to 80ms of spread per re-NACK.
  cfg.nack_backoff_cap = 80 * kMillisecond;
  cfg.nack_jitter = 1.0;
  cfg.recovery_seed = seed;
  cfg.max_nacks = 12;
  return cfg;
}

/// Runs a one-gap session (ADU 2 arrives, ADU 1 never does) to NACK
/// exhaustion and returns the NACK send times.
std::vector<SimTime> nack_schedule(std::uint64_t seed) {
  EventLoop loop;
  LoopbackPath data;
  TimedSink feedback(loop);
  AlfReceiver receiver(loop, data, feedback, jitter_config(seed));
  auto payload = ByteBuffer::from_string("the one that made it");
  auto f = ngp::test::make_fragment(1, 2, payload.span(),
                                    static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  data.send(encode_fragment(f).span());
  loop.run_until(10 * kSecond);
  return nack_times(feedback);
}

TEST(NackBackoff, JitterIsSeededDeterministicAndCapped) {
  const auto a = nack_schedule(101);
  const auto b = nack_schedule(101);
  const auto c = nack_schedule(202);

  // Same seed: the whole NACK cadence is byte-for-byte reproducible.
  EXPECT_EQ(a, b);
  // A different seed draws a different jitter stream. (The first NACK sits
  // on the un-jittered nack_delay scan; later ones carry jitter.)
  ASSERT_GE(a.size(), 3u);
  ASSERT_EQ(a.size(), c.size());  // same budget, different spacing
  EXPECT_NE(a, c);

  // Every per-ADU re-NACK gap respects cap * (1 + jitter): the exponential
  // doubling (10, 20, 40, ... ms) is clipped at 80ms plus at most 100%
  // jitter. Gaps are measured between successive NACKs; the scan cadence
  // itself (nack_retry) can only make them coarser, never exceed the
  // ceiling by more than one scan period.
  const SimDuration ceiling =
      80 * kMillisecond + 80 * kMillisecond + 10 * kMillisecond;
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i] - a[i - 1], ceiling) << "gap " << i;
  }
}

TEST(NackBackoff, ZeroJitterReproducesClassicCadence) {
  SessionConfig cfg = jitter_config(0);
  cfg.nack_jitter = 0;
  cfg.nack_backoff_cap = 0;
  EventLoop loop;
  LoopbackPath data;
  TimedSink feedback(loop);
  AlfReceiver receiver(loop, data, feedback, cfg);
  auto payload = ByteBuffer::from_string("x");
  auto f = ngp::test::make_fragment(1, 2, payload.span(), 1, 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  data.send(encode_fragment(f).span());
  loop.run_until(10 * kSecond);
  const auto times = nack_times(feedback);
  // Pure doubling, no randomness: gaps are exact multiples of the scan
  // cadence and identical across runs by construction.
  ASSERT_GE(times.size(), 3u);
  EXPECT_EQ(times, [&] {
    EventLoop loop2;
    LoopbackPath data2;
    TimedSink fb2(loop2);
    AlfReceiver r2(loop2, data2, fb2, cfg);
    data2.send(encode_fragment(f).span());
    loop2.run_until(10 * kSecond);
    return nack_times(fb2);
  }());
}

/// max_nacks 3 on a 10 ms scan with no jitter and no watchdog.
SessionConfig pacing_config() {
  SessionConfig cfg;
  cfg.max_nacks = 3;
  cfg.nack_delay = 10 * kMillisecond;
  cfg.nack_retry = 10 * kMillisecond;
  cfg.nack_jitter = 0;
  cfg.stall_timeout = 0;
  return cfg;
}

/// Id 2 arrives whole at t = 0, so the scan looks for id 1.
void inject_id2(ReceiverFixture& fx) {
  auto payload = ByteBuffer::from_string("the one that made it");
  auto f = make_fragment(1, 2, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  fx.inject(f);
}

using LossLog = std::vector<std::pair<std::uint32_t, bool>>;  // id, name_known

TEST(NackBackoff, EachReassemblyCountsItsNacksAfresh) {
  // max_nacks bounds one pacing record, not the id's life: never-seen id 1
  // spends its 3 NACKs (10, 20, 40 ms), then a partial reassembly of it
  // starts its own record and spends 3 more before the loss report.
  ReceiverFixture fx(pacing_config());
  LossLog lost;
  fx.receiver->set_on_adu_lost([&](std::uint32_t id, const AduName&, bool known) {
    lost.emplace_back(id, known);
  });
  inject_id2(fx);
  fx.loop.run_until(45 * kMillisecond);
  EXPECT_EQ(nacks_naming(fx.feedback, 1), 3);
  EXPECT_TRUE(lost.empty());

  ByteBuffer full(2000);
  Rng(5).fill(full.span());
  auto f = make_fragment(1, 1, full.subspan(0, 1000), 2000, 0);
  f.adu_checksum = internet_checksum_unrolled(full.span());
  fx.inject(f);
  fx.loop.run_until(1 * kSecond);
  EXPECT_EQ(nacks_naming(fx.feedback, 1), 6);
  EXPECT_EQ(lost, (LossLog{{1, true}}));
}

TEST(NackBackoff, FailedChecksumResumesTheNeverSeenRecord) {
  // A reassembly that fails its checksum leaves no pacing of its own: id 1
  // resumes its never-seen record (2 NACKs spent by 25 ms), so one more
  // NACK exhausts it, and the loss report carries no name.
  ReceiverFixture fx(pacing_config());
  LossLog lost;
  fx.receiver->set_on_adu_lost([&](std::uint32_t id, const AduName&, bool known) {
    lost.emplace_back(id, known);
  });
  inject_id2(fx);
  fx.loop.run_until(25 * kMillisecond);
  EXPECT_EQ(nacks_naming(fx.feedback, 1), 2);

  ByteBuffer payload(500);
  Rng(6).fill(payload.span());
  auto f = make_fragment(1, 1, payload.span(), 500, 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span()) ^ 1u;
  fx.inject(f);
  EXPECT_EQ(fx.receiver->stats().adus_checksum_failed, 1u);
  fx.loop.run_until(1 * kSecond);
  EXPECT_EQ(nacks_naming(fx.feedback, 1), 3);
  EXPECT_EQ(lost, (LossLog{{1, false}}));
  EXPECT_EQ(fx.delivered.size(), 1u);  // id 2 only
}

TEST(RecoveryDiscipline, SenderDtorWithPendingWatchdogLeavesNoLiveTimer) {
  EventLoop loop;
  SinkPath data_out;
  LoopbackPath feedback;
  SessionConfig cfg;
  cfg.stall_timeout = 100 * kMillisecond;
  auto sender = std::make_unique<AlfSender>(loop, data_out, feedback, cfg);
  int failures = 0;
  sender->set_on_session_failed([&] { ++failures; });
  ByteBuffer payload(2048);
  Rng rng(3);
  rng.fill(payload.span());
  ASSERT_TRUE(sender->send_adu(generic_name(1), payload.span()).ok());
  sender->finish();  // watchdog + DONE retry timers now pending

  // A supervisor restart destroys the endpoint mid-session: every pending
  // timer must die with it — no use-after-free, and teardown is NOT a
  // failure, so the callback must never fire.
  sender.reset();
  loop.run();
  EXPECT_EQ(failures, 0);
}

TEST(RecoveryDiscipline, ReceiverDtorWithPendingTimersLeavesNoLiveTimer) {
  EventLoop loop;
  LoopbackPath data;
  SinkPath feedback;
  SessionConfig cfg;
  cfg.stall_timeout = 100 * kMillisecond;
  auto receiver = std::make_unique<AlfReceiver>(loop, data, feedback, cfg);
  int failures = 0;
  receiver->set_on_session_failed([&] { ++failures; });
  // Half an ADU arms NACK scan, progress heartbeat and stall watchdog.
  ByteBuffer full(2000);
  Rng rng(4);
  rng.fill(full.span());
  auto f = ngp::test::make_fragment(1, 1, full.subspan(0, 1000), 2000, 0);
  f.adu_checksum = internet_checksum_unrolled(full.span());
  data.send(encode_fragment(f).span());

  receiver.reset();
  loop.run();
  EXPECT_EQ(failures, 0);
}

TEST(RecoveryDiscipline, FailureAfterCompletionNeverFires) {
  SessionConfig cfg;
  cfg.stall_timeout = 100 * kMillisecond;
  ReceiverFixture fx(cfg);
  int failures = 0;
  fx.receiver->set_on_session_failed([&] { ++failures; });
  auto payload = ByteBuffer::from_string("complete before any stall");
  auto f = make_fragment(1, 1, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  fx.inject(f);
  DoneMessage done;
  done.session = 1;
  done.total_adus = 1;
  fx.data.send(encode_done(done).span());
  ASSERT_TRUE(fx.receiver->complete());

  // Ten stall windows of silence: a completed session has no watchdog
  // left to misfire.
  fx.loop.run_until(kSecond);
  fx.loop.run();
  EXPECT_EQ(failures, 0);
  EXPECT_FALSE(fx.receiver->failed());
}

}  // namespace
}  // namespace ngp::alf
