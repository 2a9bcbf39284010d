// Chaos soak: the full ALF transfer pipeline over a FaultyPath running
// every fault class at once — bit-flips, truncation, outage flaps, replays
// and protocol-aware forged frames — from one fixed seed. The contract
// under test is the hardened receive path's: whatever is delivered is
// byte-exact, memory stays under reassembly_bytes_limit, and the session
// always ends (completion or watchdog — never a hang).
//
// Also home to the fuzz-style wire properties: random bytes and bit-flipped
// valid frames must never crash the decoder or corrupt a delivery.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "alf/adversary.h"
#include "alf/receiver.h"
#include "alf/sender.h"
#include "netsim/fault.h"
#include "netsim/link.h"
#include "resilience/breaker.h"
#include "resilience/supervisor.h"
#include "util/rng.h"

#include "test_paths.h"

namespace ngp::alf {
namespace {

using ngp::test::LoopbackPath;
using ngp::test::SinkPath;
using ngp::test::make_fragment;
using ngp::test::ReceiverFixture;

ByteBuffer payload_of(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

/// AlfPair over a duplex link whose data direction runs through a
/// FaultyPath with a protocol-aware chaos adversary attached.
struct ChaosPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath raw_data;
  FaultyPath data;
  LinkPath feedback_tx;
  LinkPath feedback_rx;
  AdversaryStats adv_stats;
  AlfSender sender;
  AlfReceiver receiver;

  std::map<std::uint64_t, ByteBuffer> sent;
  std::vector<Adu> delivered;
  bool completed = false;
  bool receiver_failed = false;
  bool sender_failed = false;

  ChaosPair(SessionConfig scfg, LinkConfig link_cfg, FaultPlan plan)
      : channel(loop, link_cfg, link_cfg),
        raw_data(channel.forward),
        data(loop, raw_data, std::move(plan)),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse),
        sender(loop, data, feedback_rx, scfg),
        receiver(loop, data, feedback_tx, scfg) {
    data.set_adversary(make_chaos_adversary(adv_stats));
    receiver.set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
    receiver.set_on_complete([this] { completed = true; });
    receiver.set_on_session_failed([this] { receiver_failed = true; });
    sender.set_on_session_failed([this] { sender_failed = true; });
  }

  void send_file(std::size_t adus, std::size_t adu_bytes) {
    for (std::uint64_t i = 0; i < adus; ++i) {
      ByteBuffer b = payload_of(adu_bytes, 1000 + i);
      ASSERT_TRUE(sender.send_adu(generic_name(i), b.span()).ok());
      sent.emplace(i, std::move(b));
    }
    sender.finish();
  }
};

TEST(ChaosSoak, EveryFaultClassAtOnceDeliversExactBytesOrFailsCleanly) {
  SessionConfig scfg;
  scfg.max_adu_len = 64 << 10;
  scfg.reassembly_bytes_limit = 256 << 10;
  scfg.adu_id_window = 4096;
  scfg.stall_timeout = 5 * kSecond;
  scfg.max_nacks = 20;
  scfg.nack_delay = 10 * kMillisecond;
  scfg.nack_retry = 20 * kMillisecond;
  // Pace the sender so the transfer spans several flap periods — an outage
  // no frame ever crosses would test nothing.
  scfg.pace_bps = 20e6;

  LinkConfig link;
  link.bandwidth_bps = 50e6;
  link.propagation_delay = 2 * kMillisecond;
  link.queue_limit = 1 << 14;

  FaultPlan plan;
  plan.seed = 2026;
  plan.payload_bitflip_rate = 0.05;
  plan.header_byte_rate = 0.02;
  plan.truncate_rate = 0.02;
  plan.extend_rate = 0.01;
  plan.replay_rate = 0.02;
  plan.adversary_rate = 0.05;
  plan.outage_period = 100 * kMillisecond;
  plan.outage_duration = 10 * kMillisecond;

  ChaosPair p(scfg, link, plan);
  p.send_file(/*adus=*/60, /*adu_bytes=*/8000);
  p.loop.run_until(60 * kSecond);

  // The session always ends: completion or a watchdog verdict, never a hang
  // (the run_until cap is the hang detector — nothing below may depend on
  // events after it).
  EXPECT_TRUE(p.completed || p.receiver_failed || p.sender_failed);

  // Whatever made it through is byte-exact; corruption may cost ADUs
  // (abandonment is allowed) but may never fake one.
  EXPECT_FALSE(p.delivered.empty());
  for (const auto& adu : p.delivered) {
    EXPECT_EQ(adu.payload, p.sent.at(adu.name.a))
        << "corrupt delivery for adu " << adu.name.a;
  }

  // Memory stayed bounded the whole run.
  EXPECT_LE(p.receiver.stats().reassembly_bytes_peak, scfg.reassembly_bytes_limit);

  // The chaos actually happened: each enabled fault class fired.
  const FaultStats& fs = p.data.stats();
  EXPECT_GT(fs.payload_bitflips, 0u);
  EXPECT_GT(fs.truncations, 0u);
  EXPECT_GT(fs.outage_dropped, 0u);
  EXPECT_GT(fs.replays, 0u);
  EXPECT_GT(fs.adversarial_injected, 0u);
  // ...and the receiver saw (and survived) damaged frames.
  EXPECT_GT(p.receiver.stats().fragments_corrupt, 0u);
}

TEST(ChaosSoak, SameSeedSameOutcome) {
  // The whole soak is a pure function of its seeds: rerunning it must land
  // on identical stats, not merely similar ones.
  auto run = [] {
    SessionConfig scfg;
    scfg.stall_timeout = 5 * kSecond;
    scfg.max_nacks = 20;
    LinkConfig link;
    link.bandwidth_bps = 50e6;
    FaultPlan plan;
    plan.seed = 7;
    plan.payload_bitflip_rate = 0.08;
    plan.truncate_rate = 0.03;
    plan.adversary_rate = 0.05;
    ChaosPair p(scfg, link, plan);
    p.send_file(30, 6000);
    p.loop.run_until(60 * kSecond);
    return std::tuple{p.delivered.size(), p.receiver.stats().fragments_corrupt,
                      p.data.stats().payload_bitflips,
                      p.sender.stats().fragments_sent, p.loop.now()};
  };
  EXPECT_EQ(run(), run());
}

TEST(ChaosSoak, MostlyDarkSubstrateTripsBothWatchdogs) {
  // A link that is up 300ms out of every 10s: the transfer cannot finish,
  // both ends must conclude so on their own and release everything —
  // "watchdog or completion always fires" with no completion available.
  SessionConfig scfg;
  scfg.stall_timeout = 2 * kSecond;
  scfg.max_nacks = 30;

  LinkConfig link;
  link.bandwidth_bps = 10e6;
  link.propagation_delay = 2 * kMillisecond;
  link.queue_limit = 1 << 14;

  FaultPlan plan;
  plan.seed = 13;
  plan.outage_period = 10 * kSecond;
  plan.outage_duration = 9700 * kMillisecond;  // up only the first 300ms

  ChaosPair p(scfg, link, plan);
  p.send_file(/*adus=*/128, /*adu_bytes=*/8000);  // ~1MB >> 300ms at 10Mbps
  p.loop.run_until(60 * kSecond);

  EXPECT_FALSE(p.completed);
  EXPECT_TRUE(p.receiver_failed);
  EXPECT_TRUE(p.sender_failed);
  EXPECT_EQ(p.receiver.stats().watchdog_fired, 1u);
  EXPECT_EQ(p.sender.stats().watchdog_fired, 1u);
  // Both ends released their buffers on failure.
  EXPECT_EQ(p.sender.stats().retransmit_buffer_bytes, 0u);
  // Partial deliveries before the verdict are still byte-exact.
  for (const auto& adu : p.delivered) {
    EXPECT_EQ(adu.payload, p.sent.at(adu.name.a));
  }
}

// ---- Fuzz-style wire properties -------------------------------------------

TEST(FuzzWire, RandomBytesNeverCrashDecoder) {
  Rng rng(31337);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    ByteBuffer junk(rng.uniform(300));
    rng.fill(junk.span());
    if (decode_message(junk.span())) ++accepted;
  }
  // The sealed header checksum makes random acceptance vanishingly rare;
  // what matters above is that nothing crashed or over-read.
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzWire, RandomBytesNeverCrashReceiver) {
  ReceiverFixture fx;
  Rng rng(4242);
  for (int i = 0; i < 5000; ++i) {
    ByteBuffer junk(rng.uniform(300));
    rng.fill(junk.span());
    fx.data.send(junk.span());
  }
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_corrupt, 5000u);
}

TEST(FuzzWire, SingleBitFlipsNeverCorruptADelivery) {
  // Property: for any valid frame with any one bit flipped, the receiver
  // either rejects it or the ADU checksum catches it at completion — a
  // delivered ADU is always byte-exact. (Single-bit errors are always
  // detected by the internet checksum, so this is exhaustive-in-kind, not
  // probabilistic.)
  ReceiverFixture fx;
  Rng rng(777);
  const int kAdus = 200;
  std::map<std::uint32_t, ByteBuffer> originals;
  for (std::uint32_t id = 1; id <= kAdus; ++id) {
    ByteBuffer payload = payload_of(200 + rng.uniform(800), 5000 + id);
    auto f = make_fragment(1, id, payload.span(),
                           static_cast<std::uint32_t>(payload.size()), 0);
    f.adu_checksum = internet_checksum_unrolled(payload.span());
    ByteBuffer frame = encode_fragment(f);

    // Flipped copy first: must not produce a (corrupt) delivery.
    ByteBuffer flipped(frame.span());
    const auto bit = static_cast<std::size_t>(rng.uniform(flipped.size() * 8));
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    fx.data.send(flipped.span());

    // Then the pristine frame: the ADU must still be deliverable.
    fx.data.send(frame.span());
    originals.emplace(id, std::move(payload));
  }

  ASSERT_EQ(fx.delivered.size(), static_cast<std::size_t>(kAdus));
  for (const auto& adu : fx.delivered) {
    EXPECT_EQ(adu.payload, originals.at(static_cast<std::uint32_t>(adu.name.a)));
  }
  // Every flip was caught somewhere: header (corrupt), payload (ADU
  // checksum), or it duplicated known bytes — and the books balance.
  const auto& st = fx.receiver->stats();
  EXPECT_EQ(st.fragments_corrupt + st.adus_checksum_failed +
                st.fragments_duplicate + st.fragments_for_done_adus,
            static_cast<std::uint64_t>(kAdus));
}

TEST(FuzzWire, TruncatedAndExtendedValidFramesRejected) {
  ReceiverFixture fx;
  Rng rng(888);
  ByteBuffer payload = payload_of(600, 99);
  auto f = make_fragment(1, 1, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  ByteBuffer frame = encode_fragment(f);

  for (int i = 0; i < 200; ++i) {
    // Truncations at every kind of boundary, including inside the header.
    ByteBuffer cut(frame.span().subspan(0, rng.uniform(frame.size())));
    fx.data.send(cut.span());
  }
  EXPECT_TRUE(fx.delivered.empty());

  ByteBuffer extended(frame.span());
  ByteBuffer junk(32);
  rng.fill(junk.span());
  extended.append(junk.span());
  fx.data.send(extended.span());
  // Trailing junk beyond the declared fragment length must not reach the
  // payload; whether the frame is rejected or salvaged, bytes stay exact.
  if (!fx.delivered.empty()) {
    EXPECT_EQ(fx.delivered[0].payload, payload);
  }
}

// ---- Recovery under chaos (DESIGN.md §10) ---------------------------------
//
// The self-healing plane interleaved with the full fault storm: the
// supervisor's epoch/RESUME machinery must make progress even while the
// feedback channel corrupts its control frames, and a circuit breaker must
// pre-empt the watchdog when an alternate path exists.

std::uint64_t fnv1a(const std::vector<Adu>& adus) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Adu& a : adus) {
    mix(a.name.a);
    for (std::uint8_t byte : a.payload.span()) {
      h = (h ^ byte) * 0x100000001b3ull;
    }
  }
  return h;
}

alf::SessionConfig storm_session() {
  alf::SessionConfig cfg;
  cfg.stall_timeout = 400 * kMillisecond;
  cfg.nack_delay = 10 * kMillisecond;
  cfg.nack_retry = 20 * kMillisecond;
  cfg.max_nacks = 30;
  return cfg;
}

/// Supervised association where BOTH directions are hostile: the data path
/// runs the full storm plus a hard mid-transfer outage, and the feedback
/// path bit-flips control frames — NACKs and the supervisor's own RESUMEs.
/// (FaultyPath applies corruption on the arrival side, so the fault wrapper
/// sits on feedback_rx, where the sender listens.)
struct SupervisedStorm {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath raw_data;
  FaultyPath data;
  LinkPath feedback_tx;
  LinkPath raw_feedback_rx;
  FaultyPath feedback_rx;
  resilience::SessionSupervisor sup;

  std::map<std::uint64_t, ByteBuffer> sent;
  std::vector<Adu> delivered;
  bool completed = false;
  bool permanently_failed = false;

  static LinkConfig fast_link() {
    LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation_delay = 2 * kMillisecond;
    cfg.queue_limit = 1 << 16;
    return cfg;
  }

  static FaultPlan storm_plan(std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.payload_bitflip_rate = 0.03;
    plan.truncate_rate = 0.02;
    plan.replay_rate = 0.02;
    // The kill: a mid-transfer outage that outlasts the stall watchdog.
    plan.scheduled_outages.push_back({50 * kMillisecond, 800 * kMillisecond});
    return plan;
  }

  static FaultPlan feedback_plan(std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    // Heavy corruption of receiver->sender control traffic: damaged
    // RESUMEs must be rejected by the wire checksum and retried, never
    // half-applied.
    plan.payload_bitflip_rate = 0.15;
    plan.header_byte_rate = 0.05;
    return plan;
  }

  explicit SupervisedStorm(resilience::SupervisorConfig scfg,
                           std::uint64_t seed = 2027)
      : channel(loop, fast_link(), fast_link()),
        raw_data(channel.forward),
        data(loop, raw_data, storm_plan(seed)),
        feedback_tx(channel.reverse),
        raw_feedback_rx(channel.reverse),
        feedback_rx(loop, raw_feedback_rx, feedback_plan(seed + 1)),
        sup(loop, data, feedback_tx, feedback_rx, storm_session(), {}, scfg) {
    sup.set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
    sup.set_on_complete([this] { completed = true; });
    sup.set_on_permanent_failure([this] { permanently_failed = true; });
  }

  void send_file(std::size_t adus, std::size_t adu_bytes) {
    for (std::uint64_t i = 1; i <= adus; ++i) {
      ByteBuffer b = payload_of(adu_bytes, 3000 + i);
      ASSERT_TRUE(sup.send_adu(generic_name(i), b.span()).ok());
      sent.emplace(i, std::move(b));
    }
    sup.finish();
  }
};

resilience::SupervisorConfig storm_supervisor(std::uint64_t seed = 77) {
  resilience::SupervisorConfig cfg;
  cfg.seed = seed;
  cfg.restart_backoff = 50 * kMillisecond;
  cfg.max_restarts = 8;
  cfg.max_resume_retries = 30;
  return cfg;
}

TEST(ChaosRecovery, SupervisedStormWithCorruptedResumesStillCompletes) {
  SupervisedStorm p(storm_supervisor());
  p.send_file(/*adus=*/16, /*adu_bytes=*/4000);
  p.loop.run_until(60 * kSecond);

  EXPECT_TRUE(p.completed);
  EXPECT_FALSE(p.permanently_failed);
  // The outage outlasted the watchdog, so recovery really ran...
  EXPECT_GE(p.sup.stats().restarts, 1u);
  // ...and the feedback corruption really hit control frames (any RESUME
  // that was damaged in flight failed its wire checksum at the sender and
  // was simply retried — resume_frames_sent counts every attempt).
  EXPECT_GT(p.feedback_rx.stats().payload_bitflips, 0u);
  EXPECT_GE(p.sup.stats().resume_frames_sent, p.sup.stats().restarts);

  // Chaos may delay ADUs but supervision must not lose or corrupt them.
  ASSERT_EQ(p.delivered.size(), p.sent.size());
  for (const auto& adu : p.delivered) {
    EXPECT_EQ(adu.payload, p.sent.at(adu.name.a))
        << "corrupt delivery for adu " << adu.name.a;
  }
}

TEST(ChaosRecovery, SeededSupervisedStormIsByteIdentical) {
  // The entire recovery interleaving — watchdog firing, backoff jitter,
  // RESUME retries through a corrupting channel — is a pure function of
  // its seeds: rerunning must reproduce the outcome bit for bit.
  auto run = [] {
    SupervisedStorm p(storm_supervisor(5150), /*seed=*/909);
    p.send_file(12, 4000);
    p.loop.run_until(60 * kSecond);
    return std::tuple{p.completed,
                      p.delivered.size(),
                      fnv1a(p.delivered),
                      p.sup.stats().restarts,
                      p.sup.stats().resume_frames_sent,
                      p.sup.stats().adus_resent,
                      p.data.stats().payload_bitflips,
                      p.loop.now()};
  };
  EXPECT_EQ(run(), run());
}

TEST(ChaosRecovery, BreakerTripDuringRetransmitBurstAvoidsRestart) {
  // Path A corrupts enough frames to keep a NACK-driven retransmit burst
  // alive, then dies outright mid-burst. With a breaker-fronted data path
  // and a clean alternate, failover (a few poll intervals) beats the 400ms
  // stall watchdog: the transfer completes with ZERO supervisor restarts.
  EventLoop loop;
  LinkConfig link = SupervisedStorm::fast_link();
  DuplexChannel ch_a(loop, link, link);
  DuplexChannel ch_b(loop, link, link);

  LinkPath raw_a(ch_a.forward);
  FaultPlan plan_a;
  plan_a.seed = 404;
  plan_a.payload_bitflip_rate = 0.05;  // fuel for the retransmit burst
  plan_a.scheduled_outages.push_back({60 * kMillisecond, 30 * kSecond});
  FaultyPath path_a(loop, raw_a, plan_a);

  LinkPath raw_b(ch_b.forward);
  FaultPlan plan_b;
  plan_b.seed = 405;  // no faults: just the offered/delivered counters
  FaultyPath path_b(loop, raw_b, plan_b);

  resilience::BreakerConfig bcfg;
  bcfg.poll_interval = 10 * kMillisecond;
  bcfg.min_polls = 2;
  bcfg.trip_below = 0.5;
  bcfg.close_above = 0.5;
  bcfg.open_backoff = 20 * kMillisecond;
  resilience::SwitchingPath sw(loop, bcfg);
  sw.add_path(path_a, [&path_a] {
    return resilience::PathSample{path_a.stats().frames_offered,
                                  path_a.stats().frames_delivered};
  });
  sw.add_path(path_b, [&path_b] {
    return resilience::PathSample{path_b.stats().frames_offered,
                                  path_b.stats().frames_delivered};
  });
  sw.set_probe([](std::uint32_t seq) {
    ProbeMessage p;
    p.session = 1;
    p.seq = seq;
    return encode_probe(p);
  });
  sw.start();

  LinkPath feedback_tx(ch_a.reverse);
  LinkPath feedback_rx(ch_a.reverse);
  // Pace the sender so the transfer is still in flight when path A dies at
  // 60ms — an unpaced burst would finish before the kill.
  alf::SessionConfig session = storm_session();
  session.pace_bps = 2e6;
  resilience::SessionSupervisor sup(loop, sw, feedback_tx, feedback_rx, session,
                                    {}, storm_supervisor(606));

  std::map<std::uint64_t, ByteBuffer> sent;
  std::vector<Adu> delivered;
  bool completed = false;
  sup.set_on_adu([&](Adu&& a) { delivered.push_back(std::move(a)); });
  sup.set_on_complete([&] { completed = true; });
  for (std::uint64_t i = 1; i <= 12; ++i) {
    ByteBuffer b = payload_of(4000, 7000 + i);
    ASSERT_TRUE(sup.send_adu(generic_name(i), b.span()).ok());
    sent.emplace(i, std::move(b));
  }
  sup.finish();
  loop.run_until(30 * kSecond);

  EXPECT_TRUE(completed);
  // The breaker, not the watchdog, absorbed the path kill.
  EXPECT_EQ(sup.stats().restarts, 0u);
  EXPECT_GE(sw.stats().trips, 1u);
  EXPECT_GE(sw.stats().failovers, 1u);
  EXPECT_EQ(sw.active(), 1u);
  EXPECT_GT(path_b.stats().frames_offered, 0u);

  ASSERT_EQ(delivered.size(), sent.size());
  for (const auto& adu : delivered) {
    EXPECT_EQ(adu.payload, sent.at(adu.name.a));
  }
}

TEST(FuzzWire, ForgedLenProbeViaAdversaryHelpers) {
  // The canonical attack frame built by the adversary module, end to end:
  // claims 2^31 bytes, must allocate nothing and count as corrupt.
  ReceiverFixture fx;
  ByteBuffer probe = forge_len_fragment(1, 9, 0x80000000u);
  fx.data.send(probe.span());
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_oversized, 1u);
  EXPECT_EQ(fx.receiver->stats().reassembly_bytes_peak, 0u);
}

TEST(ChaosAdversary, RotatesTheFourShapesInTurn) {
  // Eight observed DATA frames: each shape twice, in order, each forged
  // from the fragment it observed (session 3, 40 of 100 bytes at 40).
  AdversaryStats stats;
  AdversaryFn forge = make_chaos_adversary(stats);
  Rng rng(5);
  ByteBuffer payload = payload_of(40, 6);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::uint32_t id = 10 + i;
    ByteBuffer observed = encode_fragment(make_fragment(3, id, payload.span(), 100, 40));
    ByteBuffer forged = forge(observed.span(), rng);
    auto msg = decode_message(forged.span());
    ASSERT_TRUE(msg.has_value()) << "frame " << i;
    ASSERT_EQ(msg->type, MessageType::kData);
    const DataFragment& f = msg->data;
    switch (i % 4) {
      case 0:  // fresh id claiming 2^31 bytes
        EXPECT_EQ(f.session, 3u);
        EXPECT_GE(f.adu_id, id + 100);
        EXPECT_LE(f.adu_id, id + 199);
        EXPECT_EQ(f.adu_len, 0x80000000u);
        EXPECT_EQ(f.frag_off, 0u);
        break;
      case 1:  // the observed fragment under session + 7
        EXPECT_EQ(f.session, 10u);
        EXPECT_EQ(f.adu_id, id);
        EXPECT_EQ(f.adu_len, 100u);
        EXPECT_EQ(f.frag_off, 40u);
        break;
      case 2:  // same id, contradictory length 2 * 100 + 64 at offset 0
        EXPECT_EQ(f.session, 3u);
        EXPECT_EQ(f.adu_id, id);
        EXPECT_EQ(f.adu_len, 264u);
        EXPECT_EQ(f.frag_off, 0u);
        break;
      default:  // adu_id + 2^24
        EXPECT_EQ(f.session, 3u);
        EXPECT_EQ(f.adu_id, id + (1u << 24));
        EXPECT_EQ(f.adu_len, 100u);
        EXPECT_EQ(f.frag_off, 40u);
        break;
    }
  }
  EXPECT_EQ(stats.forged_len, 2u);
  EXPECT_EQ(stats.cross_session, 2u);
  EXPECT_EQ(stats.conflicting_len, 2u);
  EXPECT_EQ(stats.far_future_id, 2u);
}

}  // namespace
}  // namespace ngp::alf
