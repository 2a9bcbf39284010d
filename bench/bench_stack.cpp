// bench_stack — reproduces E3 (§4): the full-protocol-stack experiment.
//
//   paper: "a protocol stack comprising the current Unix TCP package and
//   the ISODE implementation of the OSI upper layers. A comparison of
//   throughput with and without significant presentation conversion showed
//   that about 97% of the total protocol stack overhead was attributable
//   to the presentation conversion function. In effect, the
//   conversion-intensive case ran about 30 times slower."
//
//   Baseline case: a very long OCTET STRING (no element conversion).
//   Conversion case: an equivalent-length array of 32-bit integers.
//
// We process the same two workloads through our full end-system stack —
// presentation encode, transport segmentation + Internet checksum, then
// receive-side checksum verification, reassembly, presentation decode —
// and time each layer so the overhead attribution can be printed the way
// the paper reports it.
#include <benchmark/benchmark.h>

#include <chrono>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "bench_util.h"
#include "buf/pool.h"
#include "checksum/internet.h"
#include "ilp/kernels.h"
#include "netsim/net_path.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "presentation/codec.h"
#include "util/rng.h"

namespace {

using namespace ngp;

constexpr std::size_t kBytes = 1 << 20;  // "very long" workload: 1 MB
constexpr std::size_t kMss = 1400;

// Workload seed; --seed re-rolls the application data (default matches the
// historical fixed seed).
std::uint64_t g_seed = 7;

struct LayerTimes {
  double presentation_tx = 0;
  double transport_tx = 0;  // segmentation + checksum
  double transport_rx = 0;  // verify + reassemble
  double presentation_rx = 0;

  double total() const {
    return presentation_tx + transport_tx + transport_rx + presentation_rx;
  }
  double presentation() const { return presentation_tx + presentation_rx; }
};

/// §4 cost ledgers, one per stack layer, so the timing attribution above is
/// backed by mechanical memory-pass counts in the same report.
struct StackCosts {
  obs::CostAccount presentation_tx;
  obs::CostAccount transport_tx;
  obs::CostAccount transport_rx;
  obs::CostAccount presentation_rx;

  void emit_metrics(obs::MetricSink& s) const {
    obs::emit_cost(s, "presentation.tx.cost", presentation_tx);
    obs::emit_cost(s, "transport.tx.cost", transport_tx);
    obs::emit_cost(s, "transport.rx.cost", transport_rx);
    obs::emit_cost(s, "presentation.rx.cost", presentation_rx);
  }
};

/// Runs one full stack traversal of the octet-string workload (raw mode —
/// the paper's baseline case) or the integer-array workload in `syntax`.
/// Returns per-layer CPU times.
template <bool Ints>
LayerTimes run_stack(TransferSyntax syntax, int reps, StackCosts* costs = nullptr) {
  Rng rng(g_seed);
  // Application source data.
  std::vector<std::int32_t> ints(kBytes / 4);
  for (auto& v : ints) v = static_cast<std::int32_t>(rng.next());
  ByteBuffer octets(kBytes);
  rng.fill(octets.span());

  LayerTimes t;
  using clock = std::chrono::steady_clock;
  for (int r = 0; r < reps; ++r) {
    // ---- Presentation encode (sender, application context).
    auto t0 = clock::now();
    ByteBuffer wire;
    obs::CostAccount* ptx = costs != nullptr ? &costs->presentation_tx : nullptr;
    if constexpr (Ints) {
      wire = encode_int_array(syntax, ints, ptx);
    } else {
      wire = encode_octets(syntax, octets.span(), ptx);
    }
    auto t1 = clock::now();

    // ---- Transport send: segment + checksum each segment.
    std::vector<std::uint16_t> checksums;
    checksums.reserve(wire.size() / kMss + 1);
    for (std::size_t off = 0; off < wire.size(); off += kMss) {
      const std::size_t len = std::min(kMss, wire.size() - off);
      checksums.push_back(internet_checksum_unrolled(wire.subspan(off, len)));
    }
    if (costs != nullptr) {
      // One read-only checksum pass over the whole payload.
      costs->transport_tx.charge_operation(wire.size());
      costs->transport_tx.charge_pass(wire.size(), /*stores=*/false);
    }
    auto t2 = clock::now();

    // ---- Transport receive: verify checksums + reassemble (copy into the
    // receive buffer, the unavoidable move).
    ByteBuffer rx(wire.size());
    std::size_t seg = 0;
    for (std::size_t off = 0; off < wire.size(); off += kMss, ++seg) {
      const std::size_t len = std::min(kMss, wire.size() - off);
      ConstBytes view = wire.subspan(off, len);
      if (internet_checksum_unrolled(view) != checksums[seg]) std::abort();
      copy_unrolled(view, MutableBytes{rx.data() + off, len});
    }
    if (costs != nullptr) {
      // Verify pass (read-only) + reassembly copy pass (stores).
      costs->transport_rx.charge_operation(wire.size());
      costs->transport_rx.charge_pass(wire.size(), /*stores=*/false);
      costs->transport_rx.charge_pass(wire.size(), /*stores=*/true);
    }
    auto t3 = clock::now();

    // ---- Presentation decode (receiver, application context).
    obs::CostAccount* prx = costs != nullptr ? &costs->presentation_rx : nullptr;
    if constexpr (Ints) {
      auto out = decode_int_array(syntax, rx.span(), prx);
      if (!out.ok()) std::abort();
      benchmark::DoNotOptimize(out->data());
    } else {
      auto out = decode_octets(syntax, rx.span(), prx);
      if (!out.ok()) std::abort();
      benchmark::DoNotOptimize(out->data());
    }
    auto t4 = clock::now();

    t.presentation_tx += std::chrono::duration<double>(t1 - t0).count();
    t.transport_tx += std::chrono::duration<double>(t2 - t1).count();
    t.transport_rx += std::chrono::duration<double>(t3 - t2).count();
    t.presentation_rx += std::chrono::duration<double>(t4 - t3).count();
  }
  return t;
}

void print_case(const char* name, const LayerTimes& t, double baseline_total) {
  const double mbps = megabits_per_second(kBytes, t.total());
  std::printf("  %-34s %9.1f Mb/s  slowdown %5.1fx  presentation %5.1f%% of stack\n",
              name, mbps, t.total() / baseline_total,
              100.0 * t.presentation() / t.total());
}

void run_e3(ngp::bench::BenchReport& rep) {
  using ngp::bench::print_header;
  const int reps = 8;

  // Per-layer §4 cost ledgers, telemetered: the registry is sampled
  // MANUALLY (no EventLoop here — the hub's wall-clock bench mode) after
  // every case, so each delta sample isolates one case's added cost. The
  // watchdog flags the paper's headline: the toolkit's presentation stage
  // touching at least one full memory pass' worth of bytes per rep.
  StackCosts base_costs;
  StackCosts toolkit_costs;
  obs::MetricsRegistry reg;
  reg.add("stack.octets_raw", base_costs);
  reg.add("stack.ints_ber_toolkit", toolkit_costs);
  obs::TelemetryHub hub(nullptr, reg);
  obs::SloWatch passes_watch;
  passes_watch.metric = "stack.ints_ber_toolkit.presentation.tx.cost.bytes_touched";
  passes_watch.threshold = 1.0 * reps * kBytes;
  std::uint64_t slo_firings = 0;
  hub.add_watch(passes_watch, [&](const obs::SloEvent&) { ++slo_firings; });
  hub.sample_at(0);  // baseline sample: every delta that follows is one case

  // Baseline: long OCTET STRING in raw/image mode (no conversion).
  const LayerTimes base = run_stack<false>(TransferSyntax::kRaw, reps, &base_costs);
  hub.sample_at(1);

  print_header("E3 (paper §4): full stack, baseline vs conversion-intensive");
  std::printf("  workload: %zu bytes end to end, MSS %zu\n", kBytes, kMss);
  print_case("octet string, raw (baseline)", base, base.total());
  print_case("int array, LWTS", run_stack<true>(TransferSyntax::kLwts, reps),
             base.total());
  print_case("int array, XDR", run_stack<true>(TransferSyntax::kXdr, reps),
             base.total());
  const LayerTimes ber = run_stack<true>(TransferSyntax::kBer, reps);
  print_case("int array, BER hand-coded", ber, base.total());
  const LayerTimes toolkit =
      run_stack<true>(TransferSyntax::kBerToolkit, reps, &toolkit_costs);
  hub.sample_at(2);
  print_case("int array, BER toolkit (ISODE-like)", toolkit, base.total());

  std::printf("\n  paper: conversion-intensive ~30x slower; ~97%% of stack overhead\n");
  std::printf("         was presentation. hand-tuned conversion alone is 4-5x.\n");
  const double overhead_frac =
      (toolkit.presentation() - base.presentation()) / (toolkit.total() - base.total());
  std::printf("  ours: toolkit slowdown %.1fx; share of ADDED overhead attributable\n"
              "        to presentation: %.1f%%\n",
              toolkit.total() / base.total(), 100.0 * overhead_frac);
  std::printf("  shape checks:\n");
  std::printf("    toolkit case dominated by presentation (>80%%): %s\n",
              toolkit.presentation() / toolkit.total() > 0.8 ? "HOLDS" : "FAILS");
  std::printf("    toolkit slowdown >> hand-coded slowdown: %s (%.1fx vs %.1fx)\n",
              toolkit.total() > 2 * ber.total() ? "HOLDS" : "FAILS",
              toolkit.total() / base.total(), ber.total() / base.total());

  // Machine-readable per-layer cost profile: the timing attribution above,
  // re-derived as memory-pass counts (deterministic across machines).
  rep.metric("toolkit_slowdown", toolkit.total() / base.total())
      .metric("presentation_share_of_added_overhead", overhead_frac)
      .hold("toolkit_dominated_by_presentation",
            toolkit.presentation() / toolkit.total() > 0.8)
      .hold("toolkit_slower_than_hand_coded", toolkit.total() > 2 * ber.total());

  ngp::bench::emit_json("STACK_SNAPSHOT_JSON", reg.snapshot().to_json());
  ngp::bench::emit_json("TELEMETRY_JSON",
                        ngp::bench::JsonWriter()
                            .field("samples", hub.samples().size())
                            .field("slo_firings", slo_firings)
                            .str());
}

// ---- Zero-copy datapath copy ledger (DESIGN.md §12) ---------------------------
//
// The same seeded ALF file transfer through the simulated stack twice:
// once the flat way (the sender stages a flat payload, the link uses the
// default pool, the application takes flat delivery through the flatten
// bridge) and once on the pooled path (Link writes into the rx pool, the
// sender prepares in place, the application takes the chain). Both
// receivers reassemble by reference. The ledger is
// the §4 memory-traffic taxonomy: copied bytes = 8 x word stores charged
// to the sender-manipulation + receiver-reassembly + receiver-manipulation
// accounts. The link's own transfer charge is identical on both paths and
// reported separately.
struct LedgerRun {
  std::uint64_t copied = 0;       ///< host-side copied bytes (the ledger)
  std::uint64_t link = 0;         ///< wire transfer stores (both paths pay it)
  std::uint64_t payload = 0;      ///< application bytes delivered
  std::uint64_t chains = 0;       ///< ADUs delivered as chains
  double elapsed = 0;             ///< wall-clock for the simulated transfer
};

LedgerRun run_ledger_transfer(bool pooled, std::size_t adus, std::size_t adu_len) {
  LedgerRun out;
  out.elapsed = ngp::bench::time_once([&] {
    EventLoop loop;
    LinkConfig lc;
    lc.bandwidth_bps = 1e9;
    lc.propagation_delay = kMillisecond;
    lc.queue_limit = 1 << 16;
    DuplexChannel channel(loop, lc);
    LinkPath data(channel.forward);
    LinkPath feedback_tx(channel.reverse);
    LinkPath feedback_rx(channel.reverse);

    buf::BufferPool pool;
    alf::SessionConfig scfg;
    alf::AlfSender sender(loop, data, feedback_rx, scfg);
    alf::AlfReceiver receiver(loop, data, feedback_tx, scfg);
    if (pooled) {
      channel.forward.set_rx_pool(&pool);
      receiver.set_rx_pool(&pool);
      receiver.set_on_adu_chain([&](AduChain&& a) {
        out.payload += a.payload.size();
        ++out.chains;
      });
    } else {
      receiver.set_on_adu([&](Adu&& a) { out.payload += a.payload.size(); });
    }

    Rng rng(g_seed);
    ByteBuffer payload(adu_len);
    for (std::uint64_t i = 0; i < adus; ++i) {
      rng.fill(payload.span());
      if (pooled) {
        buf::BufRef ref = pool.alloc(payload.size());
        std::memcpy(ref.data(), payload.data(), payload.size());
        sender.send_adu(generic_name(i), buf::Slice{std::move(ref), 0, payload.size()})
            .value();
      } else {
        sender.send_adu(generic_name(i), payload.span()).value();
      }
    }
    sender.finish();
    loop.run();

    out.copied = (sender.manipulation_cost().word_stores +
                  receiver.manipulation_cost().word_stores +
                  receiver.reassembly_cost().word_stores) *
                 8;
    out.link = channel.forward.transfer_cost().word_stores * 8;
  });
  return out;
}

void run_copy_ledger(ngp::bench::BenchReport& rep) {
  const std::size_t adus = 256, adu_len = 16 * 1024;
  const LedgerRun flat = run_ledger_transfer(false, adus, adu_len);
  const LedgerRun pooled = run_ledger_transfer(true, adus, adu_len);

  ngp::bench::print_header("Copy ledger (DESIGN.md §12): flat vs pooled datapath");
  std::printf("  workload: %zu ADUs x %zu bytes over the simulated link\n", adus,
              adu_len);
  std::printf("  %-28s %14s %14s\n", "", "flat", "pooled");
  std::printf("  %-28s %14llu %14llu\n", "host copied bytes",
              static_cast<unsigned long long>(flat.copied),
              static_cast<unsigned long long>(pooled.copied));
  std::printf("  %-28s %14llu %14llu\n", "wire transfer bytes",
              static_cast<unsigned long long>(flat.link),
              static_cast<unsigned long long>(pooled.link));
  const double drop =
      flat.copied > 0
          ? 100.0 * (1.0 - static_cast<double>(pooled.copied) /
                               static_cast<double>(flat.copied))
          : 0.0;
  std::printf("  copied-bytes drop: %.1f%% (acceptance floor 40%%) -> %s\n", drop,
              drop >= 40.0 ? "HOLDS" : "FAILS");
  std::printf("  pooled chains delivered: %llu / %zu; payload byte-identical "
              "runs are pinned by ctest -L zerocopy\n",
              static_cast<unsigned long long>(pooled.chains), adus);

  // The copied-bytes ledger is deterministic (§4 arithmetic, not wall
  // time): tracked at zero tolerance so any future change that sneaks a
  // copy back into the pooled path fails the trajectory.
  rep.tracked("pooled_copied_bytes", pooled.copied, /*higher=*/false, 0.0)
      .tracked("copied_drop_pct", drop, /*higher=*/true, 0.1)
      .metric("flat_copied_bytes", flat.copied)
      .metric("link_transfer_bytes", flat.link)
      .metric("pooled_chains_delivered", pooled.chains)
      .hold("copied_bytes_drop_40pct", drop >= 40.0)
      .hold("all_chains_delivered", pooled.chains == adus);

  ngp::bench::emit_json(
      "COPY_LEDGER_JSON",
      ngp::bench::JsonWriter()
          .field("adus", adus)
          .field("adu_bytes", adu_len)
          .field("payload_bytes", flat.payload)
          .field("flat_copied_bytes", flat.copied)
          .field("pooled_copied_bytes", pooled.copied)
          .field("link_transfer_bytes", flat.link)
          .field("copied_drop_pct", drop)
          .field("pooled_chains_delivered", pooled.chains)
          .field("holds_40pct_floor", drop >= 40.0)
          .str());
}

// google-benchmark registration of the end-to-end stack per syntax.
void BM_Stack(benchmark::State& state, TransferSyntax syntax, bool ints) {
  for (auto _ : state) {
    LayerTimes t = ints ? run_stack<true>(syntax, 1) : run_stack<false>(syntax, 1);
    benchmark::DoNotOptimize(t.total());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBytes));
}

void register_benches() {
  benchmark::RegisterBenchmark("stack/octets_raw", [](benchmark::State& s) {
    BM_Stack(s, TransferSyntax::kRaw, false);
  });
  benchmark::RegisterBenchmark("stack/ints_lwts", [](benchmark::State& s) {
    BM_Stack(s, TransferSyntax::kLwts, true);
  });
  benchmark::RegisterBenchmark("stack/ints_xdr", [](benchmark::State& s) {
    BM_Stack(s, TransferSyntax::kXdr, true);
  });
  benchmark::RegisterBenchmark("stack/ints_ber", [](benchmark::State& s) {
    BM_Stack(s, TransferSyntax::kBer, true);
  });
  benchmark::RegisterBenchmark("stack/ints_ber_toolkit", [](benchmark::State& s) {
    BM_Stack(s, TransferSyntax::kBerToolkit, true);
  });
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared bench flags BEFORE google-benchmark sees argv.
  const ngp::bench::Args args = ngp::bench::parse_args(&argc, argv);
  g_seed = args.seed != 1 ? args.seed : g_seed;
  register_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ngp::bench::BenchReport rep("zerocopy", args);
  run_e3(rep);
  run_copy_ledger(rep);
  if (!rep.emit("ZEROCOPY_REPORT_JSON")) return 1;
  return 0;
}
