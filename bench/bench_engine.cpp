// bench_engine — E9: scaling of the out-of-order manipulation engine.
//
// The §4/§5 case for parallel manipulation, measured: per-ADU work
// (ChaCha20 decrypt + fused Internet-checksum verify + BER presentation
// decode) is embarrassingly parallel BECAUSE ALF names ADUs in an
// application name-space and promises nothing about processing order. So
// the same job set is pushed through ngp::engine at workers = 0 (inline,
// the deterministic baseline), 1, 2, 4 and 8, and three things are
// reported per point:
//
//   * manipulation throughput (Mb/s over the encrypted wire bytes);
//   * an order-independent hash of every finished payload — byte-identical
//     results across ALL worker counts, or the run flags itself;
//   * the merged §4 cost ledger — identical across ALL worker counts
//     (commutative merges), or the run flags itself.
//
// The ENGINE_SCALING_JSON line is the machine-readable summary.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "buf/pool.h"
#include "checksum/checksum.h"
#include "crypto/chacha20.h"
#include "engine/engine.h"
#include "netsim/net_path.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "presentation/codec.h"
#include "sessiond/sessiond.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace {

using namespace ngp;

constexpr std::size_t kIntsPerAdu = 8192;  // ~37 KB of BER per ADU
constexpr std::size_t kAdus = 192;

ChaChaKey session_key() {
  ChaChaKey k{};
  for (std::size_t i = 0; i < k.key.size(); ++i) {
    k.key[i] = static_cast<std::uint8_t>(i * 11 + 3);
  }
  return k;
}

struct WireAdu {
  ByteBuffer wire;  ///< encrypted BER int-array
  ManipulationPlan plan;
};

/// The session's ADU set: BER-encoded int arrays, checksummed in the
/// clear, then encrypted with the per-ADU nonce — exactly the wire state
/// an AlfReceiver hands the engine.
std::vector<WireAdu> make_session(std::uint64_t seed) {
  std::vector<WireAdu> adus;
  adus.reserve(kAdus);
  Rng rng(seed);
  for (std::size_t a = 0; a < kAdus; ++a) {
    std::vector<std::int32_t> ints(kIntsPerAdu);
    for (auto& v : ints) v = static_cast<std::int32_t>(rng.next());
    WireAdu w;
    w.wire = encode_int_array(TransferSyntax::kBer, ints);
    w.plan.decrypt = true;
    w.plan.key = session_key();
    store_u32_be(w.plan.key.nonce.data() + 8, static_cast<std::uint32_t>(a + 1));
    w.plan.checksum_kind = ChecksumKind::kInternet;
    w.plan.expected_checksum =
        compute_checksum(ChecksumKind::kInternet, w.wire.span());
    chacha20_xor(w.plan.key, 0, w.wire.span());
    adus.push_back(std::move(w));
  }
  return adus;
}

/// FNV-1a over 8-byte words (tail bytes zero-padded): fast enough that
/// control-side hashing stays a sliver of the per-ADU cost, so it cannot
/// mask worker-pool scaling (Amdahl) on multi-core hosts.
std::uint64_t fnv1a_words(ConstBytes b) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b.data() + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  std::uint64_t tail = 0;
  if (i < b.size()) std::memcpy(&tail, b.data() + i, b.size() - i);
  return (h ^ tail) * 1099511628211ull;
}

struct RunResult {
  double seconds = 0;
  double mbps = 0;
  std::uint64_t output_hash = 0;  ///< XOR of per-ADU hashes: order-free
  obs::CostAccount ledger;
  std::uint64_t failed = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t flight_events = 0;
  std::uint64_t flight_dropped = 0;
  std::uint64_t slo_firings = 0;
};

/// FlightRecorder clock for a loop-less wall-clock bench: a monotone step
/// counter — enough to order submit/begin/end/harvest and count drops.
SimTime step_clock(const void* ctx) {
  auto* steps = static_cast<std::uint64_t*>(const_cast<void*>(ctx));
  return static_cast<SimTime>((*steps)++);
}

RunResult run_session(const std::vector<WireAdu>& adus, unsigned workers) {
  // Declared before the engine: every job's segment must outlive it.
  buf::BufferPool pool;
  engine::Engine eng(engine::EngineConfig{.workers = workers});
  RunResult r;
  std::size_t wire_bytes = 0;

  // Flight recording of the engine lifecycle (submit / worker begin+end /
  // harvest) plus a manually-sampled telemetry hub watching queue depth:
  // p99 ring occupancy >= 1 means control outran the pool this run.
  std::uint64_t steps = 0;
  obs::FlightRecorder flight(&step_clock, &steps);
  eng.set_flight(&flight);
  flight.set_enabled(true);
  obs::MetricsRegistry reg;
  eng.register_metrics(reg, "engine");
  obs::TelemetryHub hub(nullptr, reg);
  obs::SloWatch depth_watch;
  depth_watch.metric = "engine.queue_depth";
  depth_watch.threshold = 1.0;
  hub.add_watch(depth_watch, [&r](const obs::SloEvent&) { ++r.slo_firings; });

  const double secs = ngp::bench::time_once([&] {
    for (std::size_t a = 0; a < adus.size(); ++a) {
      const ByteBuffer& wire = adus[a].wire;
      wire_bytes += wire.size();
      engine::ManipulationJob job;
      job.id = obs::flight_trace_id(1, static_cast<std::uint32_t>(a + 1));
      // Fresh copy per run, one segment per ADU: manipulated in place.
      buf::Slice seg{pool.alloc(wire.size()), 0, wire.size()};
      std::memcpy(seg.mutable_bytes().data(), wire.data(), wire.size());
      job.chain.append(std::move(seg));
      job.plan = adus[a].plan;
      // Presentation decode in application context (worker thread): BER
      // has no word kernel, so it runs as the job's app stage after the
      // fused decrypt+verify pass proves the ADU intact. The decoded ints
      // overwrite the segment they were decoded from.
      job.app_stage = [](buf::BufChain& chain, obs::CostAccount& cost) {
        const buf::Slice& seg = chain.segment(0);
        auto out = decode_int_array(TransferSyntax::kBer, seg.bytes(), &cost);
        if (!out.ok()) std::abort();
        const std::size_t n = out->size() * sizeof(std::int32_t);
        if (n > seg.len) std::abort();
        std::memcpy(seg.mutable_bytes().data(), out->data(), n);
        chain.trim_back(chain.size() - n);
      };
      job.on_done = [&r](bool intact, buf::BufChain&& chain,
                         const obs::CostAccount& cost) {
        if (!intact) ++r.failed;
        r.output_hash ^= fnv1a_words(chain.segment(0).bytes());
        r.ledger.merge(cost);
      };
      eng.submit(std::move(job));
      if ((a & 15) == 15) eng.poll();  // control thread keeps harvesting
    }
    eng.wait_all();
  });

  r.seconds = secs;
  r.mbps = megabits_per_second(wire_bytes, secs);
  r.backpressure = eng.stats().submit_backpressure;
  hub.sample_at(static_cast<SimTime>(steps));
  const obs::FlightStats fs = flight.stats();
  r.flight_events = fs.events_recorded;
  r.flight_dropped = fs.events_dropped;
  return r;
}

bool ledgers_equal(const obs::CostAccount& a, const obs::CostAccount& b) {
  return a.operations == b.operations && a.bytes_touched == b.bytes_touched &&
         a.words_touched == b.words_touched && a.memory_passes == b.memory_passes &&
         a.word_loads == b.word_loads && a.word_stores == b.word_stores;
}

/// The same ADU payloads in pre-encryption form (same Rng draw order as
/// make_session): the session-plane run feeds PLAINTEXT to the sender,
/// whose config-driven checksum+encrypt produces on the wire exactly the
/// state make_session() staged by hand.
std::vector<ByteBuffer> make_plaintext(std::uint64_t seed) {
  std::vector<ByteBuffer> adus;
  adus.reserve(kAdus);
  Rng rng(seed);
  for (std::size_t a = 0; a < kAdus; ++a) {
    std::vector<std::int32_t> ints(kIntsPerAdu);
    for (auto& v : ints) v = static_cast<std::int32_t>(rng.next());
    adus.push_back(encode_int_array(TransferSyntax::kBer, ints));
  }
  return adus;
}

struct PlaneResult {
  double mbps = 0;
  std::uint64_t output_hash = 0;
  std::uint64_t offloaded = 0;
  std::uint64_t delivered = 0;
};

/// Session-plane ingest: eight associations opened on one Sessiond, every
/// receiver offloading manipulation to ONE shared engine
/// (OpenOptions::attach.engine) — the §4 shape where a single manipulation
/// pool serves all sessions on the host. The links are fat and clean so
/// manipulation still dominates; the decoded output must hash identically
/// to direct engine submission, whatever the schedule.
PlaneResult run_session_plane(const std::vector<ByteBuffer>& plain,
                              unsigned workers) {
  constexpr std::size_t kPlaneSessions = 8;
  EventLoop loop;
  engine::Engine eng(engine::EngineConfig{.workers = workers});
  sessiond::Sessiond daemon(loop);

  const auto base = alf::SessionConfig::builder()
                        .checksum(ChecksumKind::kInternet)
                        .encrypt(session_key())
                        .build();
  if (!base.ok()) std::abort();

  LinkConfig link;
  link.bandwidth_bps = 10e9;
  link.propagation_delay = 10 * kMicrosecond;
  link.queue_limit = 1 << 20;

  struct Lane {
    Lane(EventLoop& l, const LinkConfig& c)
        : ch(l, c, c), data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse) {}
    DuplexChannel ch;
    LinkPath data, fb_tx, fb_rx;
    sessiond::SessionHandle sess;
  };
  std::vector<std::unique_ptr<Lane>> lanes;

  PlaneResult r;
  for (std::size_t s = 0; s < kPlaneSessions; ++s) {
    lanes.push_back(std::make_unique<Lane>(loop, link));
    Lane& lane = *lanes.back();
    alf::SessionConfig cfg = base.value();
    cfg.session_id = static_cast<std::uint16_t>(s + 1);
    sessiond::OpenOptions opts;
    opts.attach.engine = &eng;
    opts.attach.engine_harvest_delay = kMillisecond;
    auto opened = daemon.open(cfg, {&lane.data, &lane.fb_tx, &lane.fb_rx}, opts);
    if (!opened.ok()) std::abort();
    lane.sess = std::move(opened.value());
    lane.sess.set_on_adu([&r](Adu&& a) {
      auto ints = decode_int_array(TransferSyntax::kBer, a.payload.span());
      if (!ints.ok()) std::abort();
      ByteBuffer raw(ints->size() * sizeof(std::int32_t));
      std::memcpy(raw.data(), ints->data(), raw.size());
      r.output_hash ^= fnv1a_words(raw.span());
      ++r.delivered;
    });
  }

  std::size_t wire_bytes = 0;
  const double secs = ngp::bench::time_once([&] {
    // Round-robin the ADU set across the sessions, then run the sim dry.
    for (std::size_t a = 0; a < plain.size(); ++a) {
      Lane& lane = *lanes[a % kPlaneSessions];
      wire_bytes += plain[a].size();
      if (!lane.sess.send_adu(generic_name(a + 1), plain[a].span()).ok()) {
        std::abort();
      }
    }
    for (auto& lane : lanes) lane->sess.finish();
    loop.run();
  });
  r.mbps = megabits_per_second(wire_bytes, secs);
  for (auto& lane : lanes) {
    r.offloaded += lane->sess.receiver().stats().adus_engine_offloaded;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const ngp::bench::Args args = ngp::bench::parse_args(&argc, argv);
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());

  std::printf("=== E9: manipulation-engine scaling (decrypt + verify + BER decode) ===\n");
  const std::vector<WireAdu> adus = make_session(args.seed);
  std::size_t wire_bytes = 0;
  for (const auto& a : adus) wire_bytes += a.wire.size();
  std::printf("session: %zu ADUs, %zu wire bytes, seed %llu, host cpus %u\n\n",
              adus.size(), wire_bytes,
              static_cast<unsigned long long>(args.seed), host_cpus);

  std::vector<unsigned> sweep = {0, 1, 2, 4, 8};
  if (args.threads > 0) sweep = {0, static_cast<unsigned>(args.threads)};

  // Warm one inline pass so first-touch costs don't bias the baseline.
  (void)run_session(adus, 0);

  std::vector<RunResult> results;
  std::printf("%8s %10s %10s %9s %12s %9s %6s\n", "workers", "time(s)", "Mb/s",
              "speedup", "backpressure", "flight_ev", "slo");
  for (unsigned w : sweep) {
    RunResult r = run_session(adus, w);
    const double speedup = results.empty() ? 1.0 : results[0].mbps > 0
        ? r.mbps / results[0].mbps : 0.0;
    std::printf("%8u %10.4f %10.1f %8.2fx %12llu %9llu %6llu\n", w, r.seconds,
                r.mbps, speedup, static_cast<unsigned long long>(r.backpressure),
                static_cast<unsigned long long>(r.flight_events),
                static_cast<unsigned long long>(r.slo_firings));
    results.push_back(std::move(r));
  }
  {
    std::uint64_t ev = 0, dropped = 0, slo = 0;
    for (const RunResult& r : results) {
      ev += r.flight_events;
      dropped += r.flight_dropped;
      slo += r.slo_firings;
    }
    ngp::bench::emit_json("ENGINE_TELEMETRY_JSON",
                          ngp::bench::JsonWriter()
                              .field("flight_events", ev)
                              .field("flight_dropped", dropped)
                              .field("slo_firings", slo)
                              .str());
  }

  bool hash_ok = true, ledger_ok = true;
  std::uint64_t failed = 0;
  for (const RunResult& r : results) {
    hash_ok = hash_ok && r.output_hash == results[0].output_hash;
    ledger_ok = ledger_ok && ledgers_equal(r.ledger, results[0].ledger);
    failed += r.failed;
  }
  std::printf("\nshape checks:\n");
  std::printf("  all ADUs verified intact:                 %s\n",
              failed == 0 ? "HOLDS" : "FAILS");
  std::printf("  output bytes identical across schedules:  %s\n",
              hash_ok ? "HOLDS" : "FAILS");
  std::printf("  cost ledger identical across schedules:   %s\n",
              ledger_ok ? "HOLDS" : "FAILS");
  // The throughput claim needs real cores to stand on: workers can only
  // overlap where the host gives them hardware threads to run on.
  double best_speedup = 1.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[0].mbps > 0) {
      best_speedup = std::max(best_speedup, results[i].mbps / results[0].mbps);
    }
  }
  if (host_cpus >= 4) {
    std::printf("  >=2.5x manipulation throughput at 4 workers: %s (best %.2fx)\n",
                best_speedup >= 2.5 ? "HOLDS" : "FAILS", best_speedup);
  } else {
    std::printf("  scaling check SKIPPED: host has %u cpu(s); worker overlap\n"
                "  is impossible here (run on a multi-core host to measure it)\n",
                host_cpus);
  }

  std::string points;
  for (std::size_t i = 0; i < results.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "%s{\"workers\":%u,\"mbps\":%.1f,\"speedup\":%.2f}",
                  i ? "," : "", sweep[i], results[i].mbps,
                  results[0].mbps > 0 ? results[i].mbps / results[0].mbps : 0.0);
    points += buf;
  }
  char head[192];
  std::snprintf(head, sizeof head,
                "{\"adus\":%zu,\"wire_bytes\":%zu,\"seed\":%llu,\"host_cpus\":%u,"
                "\"output_identical\":%s,\"ledger_identical\":%s,\"points\":[",
                adus.size(), wire_bytes,
                static_cast<unsigned long long>(args.seed), host_cpus,
                hash_ok ? "true" : "false", ledger_ok ? "true" : "false");
  ngp::bench::emit_json("ENGINE_SCALING_JSON", std::string(head) + points + "]}");

  // Kernel-tier sweep: the same session once per SIMD dispatch level
  // (inline schedule). The tier may move throughput only — output hash and
  // §4 ledger must match the worker-sweep baseline bit for bit, the same
  // invariance engine_test pins. (Throughput moves less here than in
  // bench_table1: the BER app stage has no word kernel and dominates.)
  std::printf("\nkernel tiers (inline schedule):\n");
  const ngp::simd::KernelTier saved_tier = ngp::simd::active_tier();
  bool tier_hash_ok = true, tier_ledger_ok = true;
  std::string tier_points;
  bool first_tier = true;
  for (std::size_t t = 0; t < ngp::simd::kKernelTierCount; ++t) {
    const auto tier = static_cast<ngp::simd::KernelTier>(t);
    if (ngp::simd::tier_table(tier) == nullptr) continue;
    ngp::simd::set_active_tier(tier);
    const RunResult r = run_session(adus, 0);
    const bool h = r.output_hash == results[0].output_hash;
    const bool l = ledgers_equal(r.ledger, results[0].ledger);
    tier_hash_ok = tier_hash_ok && h;
    tier_ledger_ok = tier_ledger_ok && l;
    failed += r.failed;
    std::printf("  %-8s %10.1f Mb/s   output %s   ledger %s\n",
                ngp::simd::tier_name(tier), r.mbps, h ? "identical" : "DIVERGED",
                l ? "identical" : "DIVERGED");
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s{\"tier\":\"%s\",\"mbps\":%.1f}",
                  first_tier ? "" : ",", ngp::simd::tier_name(tier), r.mbps);
    tier_points += buf;
    first_tier = false;
  }
  ngp::simd::set_active_tier(saved_tier);
  char tier_head[160];
  std::snprintf(tier_head, sizeof tier_head,
                "{\"best_tier\":\"%s\",\"output_identical\":%s,"
                "\"ledger_identical\":%s,\"tiers\":[",
                ngp::simd::tier_name(ngp::simd::best_tier()),
                tier_hash_ok ? "true" : "false", tier_ledger_ok ? "true" : "false");
  ngp::bench::emit_json("KERNEL_TIERS_JSON",
                        std::string(tier_head) + tier_points + "]}");

  // Session-plane ingest: the same payloads arrive as ALF ADUs through
  // Sessiond::open()ed associations sharing one engine. Transport must add
  // nothing and lose nothing: every ADU offloads, and the decoded output
  // hashes identically to direct submission.
  std::printf("\nsession plane (8 sessions, one shared engine):\n");
  const std::vector<ByteBuffer> plain = make_plaintext(args.seed);
  bool plane_ok = true;
  std::string plane_points;
  bool first_plane = true;
  for (unsigned w : {0u, 4u}) {
    const PlaneResult p = run_session_plane(plain, w);
    const bool h = p.output_hash == results[0].output_hash &&
                   p.delivered == adus.size() && p.offloaded == adus.size();
    plane_ok = plane_ok && h;
    std::printf("  workers %u: %10.1f Mb/s   offloaded %llu/%zu   output %s\n",
                w, p.mbps, static_cast<unsigned long long>(p.offloaded),
                adus.size(), h ? "identical" : "DIVERGED");
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s{\"workers\":%u,\"mbps\":%.1f}",
                  first_plane ? "" : ",", w, p.mbps);
    plane_points += buf;
    first_plane = false;
  }
  char plane_head[96];
  std::snprintf(plane_head, sizeof plane_head,
                "{\"sessions\":8,\"output_identical\":%s,\"points\":[",
                plane_ok ? "true" : "false");
  ngp::bench::emit_json("SESSIOND_ENGINE_JSON",
                        std::string(plane_head) + plane_points + "]}");

  ngp::bench::BenchReport rep("engine", args);
  rep.metric("inline_mbps", results[0].mbps)
      .tracked("best_speedup", best_speedup, /*higher=*/true, 0.4)
      .metric("adus", adus.size())
      .metric("wire_bytes", wire_bytes)
      .metric("host_cpus", host_cpus)
      .hold("all_adus_verified_intact", failed == 0)
      .hold("output_identical_across_schedules", hash_ok)
      .hold("ledger_identical_across_schedules", ledger_ok)
      .hold("output_identical_across_tiers", tier_hash_ok)
      .hold("ledger_identical_across_tiers", tier_ledger_ok)
      .hold("session_plane_output_identical", plane_ok);
  if (host_cpus >= 4) {
    rep.hold("speedup_25x_at_4_workers", best_speedup >= 2.5);
  }
  if (!rep.emit("ENGINE_REPORT_JSON")) return 1;

  return (hash_ok && ledger_ok && tier_hash_ok && tier_ledger_ok &&
          plane_ok && failed == 0)
             ? 0
             : 1;
}
