// bench_ablation — design-choice ablations called out in DESIGN.md:
//
//   A1: checksum algorithm choice (Internet vs Fletcher vs Adler vs CRC)
//       — the per-ADU integrity knob in SessionConfig.
//   A2: loop engineering: byte-at-a-time vs word vs unrolled (the
//       "hand-coded unrolled loops" qualifier in Table 1).
//   A3: compiled vs interpreted stacks (§8): template-fused pipeline vs
//       runtime-dispatched per-layer passes.
//   A4: ADU size: per-fragment header overhead vs loss-amplification —
//       §5's "reasonably bounded" trade-off, measured end to end.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "alf/receiver.h"
#include "alf/sender.h"
#include "checksum/checksum.h"
#include "ilp/engine.h"
#include "ilp/kernels.h"
#include "ilp/runtime.h"
#include "netsim/net_path.h"
#include "util/rng.h"

namespace {

using namespace ngp;

constexpr std::size_t kBuf = 64 * 1024;

ByteBuffer make_buffer(std::size_t n) {
  ByteBuffer b(n);
  Rng rng(0xAB1A);
  rng.fill(b.span());
  return b;
}

void ablation_checksums() {
  using ngp::bench::measure_mbps;
  ngp::bench::print_header("A1: checksum algorithm throughput (per-ADU integrity knob)");
  ByteBuffer src = make_buffer(kBuf);
  for (ChecksumKind kind : {ChecksumKind::kInternet, ChecksumKind::kFletcher32,
                            ChecksumKind::kAdler32, ChecksumKind::kCrc32}) {
    volatile std::uint32_t sink = 0;
    const double mbps =
        measure_mbps(kBuf, [&] { sink = compute_checksum(kind, src.span()); });
    (void)sink;
    ngp::bench::print_row(std::string(checksum_kind_name(kind)), mbps);
  }
}

void ablation_unrolling() {
  using ngp::bench::measure_mbps;
  ngp::bench::print_header("A2: loop engineering (Table 1's 'hand-coded unrolled')");
  ByteBuffer src = make_buffer(kBuf), dst(kBuf);
  volatile std::uint16_t sink = 0;
  ngp::bench::print_row("checksum byte-at-a-time", measure_mbps(kBuf, [&] {
                          sink = internet_checksum_bytewise(src.span());
                        }));
  ngp::bench::print_row("checksum 16-bit words", measure_mbps(kBuf, [&] {
                          sink = internet_checksum(src.span());
                        }));
  ngp::bench::print_row("checksum 64-bit unrolled", measure_mbps(kBuf, [&] {
                          sink = internet_checksum_unrolled(src.span());
                        }));
  (void)sink;
  ngp::bench::print_row("copy byte-at-a-time",
                        measure_mbps(kBuf, [&] { copy_bytewise(src.span(), dst.span()); }));
  ngp::bench::print_row("copy 64-bit unrolled",
                        measure_mbps(kBuf, [&] { copy_unrolled(src.span(), dst.span()); }));
  ngp::bench::print_row("copy memcpy",
                        measure_mbps(kBuf, [&] { copy_memcpy(src.span(), dst.span()); }));
}

void ablation_compiled_vs_interpreted() {
  using ngp::bench::measure_mbps;
  ngp::bench::print_header(
      "A3 (paper §8): 'compiled' (fused templates) vs 'interpreted' (runtime stack)");
  // Memory-bound working set (beyond LLC): the compiled/fused advantage is
  // structural — one traversal instead of one per layer. At cache-resident
  // sizes both run from L2 and the comparison is dominated by noise.
  const std::size_t big = 32 << 20;
  ByteBuffer src = make_buffer(big), dst(big);

  const double compiled = measure_mbps(big, [&] {
    ChecksumStage ck;
    Byteswap32Stage bs;
    AppSumStage sum;
    ilp_fused(src.span(), dst.span(), ck, bs, sum);
    benchmark::DoNotOptimize(ck.result());
  });

  RuntimePipeline pipe;
  pipe.push(make_runtime_checksum());
  pipe.push(make_runtime_byteswap32());
  pipe.push(make_runtime_app_sum());
  const double interpreted = measure_mbps(big, [&] {
    pipe.run(src.span(), dst.span());
    benchmark::DoNotOptimize(pipe.stage(0).result());
  });

  ngp::bench::print_row("compiled (ilp_fused)", compiled);
  ngp::bench::print_row("interpreted (RuntimePipeline)", interpreted, compiled);
  std::printf("  shape check: compiled beats interpreted when memory-bound -> %s "
              "(%.2fx)\n",
              compiled > interpreted ? "HOLDS" : "FAILS", compiled / interpreted);
}

void ablation_adu_size() {
  ngp::bench::print_header("A4 (paper §5): ADU size trade-off, end to end at 2% loss");
  std::printf("  %-10s | %10s | %10s | %12s | %14s\n", "ADU bytes", "time(s)",
              "Mb/s", "ADU rtx", "hdr overhead");
  const std::size_t total = 1 << 20;

  for (std::size_t adu : {500u, 1000u, 2000u, 4000u, 8000u, 16000u, 64000u}) {
    EventLoop loop;
    LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation_delay = 2 * kMillisecond;
    cfg.queue_limit = 1 << 16;
    cfg.seed = adu;
    DuplexChannel ch(loop, cfg);
    ch.forward.set_loss_rate(0.02);
    LinkPath data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);

    alf::SessionConfig scfg;
    scfg.nack_delay = 10 * kMillisecond;
    scfg.nack_retry = 25 * kMillisecond;
    alf::AlfSender sender(loop, data, fb_rx, scfg);
    alf::AlfReceiver receiver(loop, data, fb_tx, scfg);
    std::uint64_t delivered = 0;
    receiver.set_on_adu([&](Adu&& a) { delivered += a.payload.size(); });

    ByteBuffer file(total);
    Rng rng(9);
    rng.fill(file.span());
    for (std::size_t off = 0; off < total; off += adu) {
      const std::size_t len = std::min(adu, total - off);
      if (!sender
               .send_adu(FileRegionName{off, len}.to_name(), file.span().subspan(off, len))
               .ok()) {
        std::abort();
      }
    }
    sender.finish();
    loop.run();

    const double secs = to_seconds(loop.now());
    const double hdr_frac =
        static_cast<double>(sender.stats().fragments_sent) *
        alf::DataFragment::kHeaderSize /
        static_cast<double>(sender.stats().payload_bytes_sent);
    std::printf("  %-10zu | %10.3f | %10.1f | %12zu | %13.1f%%\n", adu, secs,
                megabits_per_second(delivered, secs),
                static_cast<std::size_t>(sender.stats().adus_retransmitted),
                100.0 * hdr_frac);
  }
  std::printf("  shape: tiny ADUs pay header overhead; huge ADUs amplify loss\n"
              "  into retransmitted volume — the optimum is in between\n"
              "  (\"ADU lengths should be reasonably bounded\", §5).\n");
}

void ablation_fec() {
  ngp::bench::print_header(
      "A5 (paper fn.10): ADU-level FEC for no-retransmit sessions, 3% loss");
  std::printf("  %-8s | %12s | %12s | %14s\n", "fec_k", "ADUs delivered",
              "FEC repairs", "parity overhead");
  const std::size_t kAdus = 400, kAduSize = 6000;

  for (int fec_k : {0, 2, 4, 8}) {
    EventLoop loop;
    LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation_delay = 2 * kMillisecond;
    cfg.queue_limit = 1 << 16;
    cfg.seed = 77 + static_cast<std::uint64_t>(fec_k);
    DuplexChannel ch(loop, cfg);
    ch.forward.set_loss_rate(0.03);
    LinkPath data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);

    alf::SessionConfig scfg;
    scfg.retransmit = alf::RetransmitPolicy::kNone;  // real time: FEC or bust
    scfg.fec_k = static_cast<std::uint8_t>(fec_k);
    alf::AlfSender sender(loop, data, fb_rx, scfg);
    alf::AlfReceiver receiver(loop, data, fb_tx, scfg);
    std::uint64_t delivered = 0;
    receiver.set_on_adu([&](Adu&&) { ++delivered; });

    ByteBuffer payload(kAduSize);
    Rng rng(5);
    for (std::size_t i = 0; i < kAdus; ++i) {
      rng.fill(payload.span());
      if (!sender.send_adu(generic_name(i), payload.span()).ok()) std::abort();
    }
    sender.finish();
    loop.run();

    const double overhead =
        sender.stats().fragments_sent == 0
            ? 0.0
            : 100.0 * static_cast<double>(sender.stats().fec_parity_sent) /
                  static_cast<double>(sender.stats().fragments_sent);
    std::printf("  %-8d | %9.1f%%    | %12llu | %13.1f%%\n", fec_k,
                100.0 * static_cast<double>(delivered) / kAdus,
                static_cast<unsigned long long>(
                    receiver.stats().fragments_fec_reconstructed),
                overhead);
  }
  std::printf("  shape: smaller k = more parity overhead but higher survival\n"
              "  without any retransmission round trip (footnote 10's FEC).\n");
}

}  // namespace

int main() {
  ablation_checksums();
  ablation_unrolling();
  ablation_compiled_vs_interpreted();
  ablation_adu_size();
  ablation_fec();
  return 0;
}
