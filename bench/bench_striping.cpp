// bench_striping — E7 (extension): §7's parallel-delivery claim, measured.
//
//   "The solution seems to be to separate the network into several parts,
//   each of which delivers part of the data to part of the processor...
//   if the data is organized into ADUs, each ADU will contain enough
//   information to control its own delivery."
//
// Sweep the lane count for a fixed transfer: aggregate goodput should
// scale with lanes (no coordination hot spot), and the same sweep under
// loss shows each lane recovering independently. The paper publishes no
// numbers for §7, so this is an extension experiment; the shape target is
// near-linear scaling.
#include <cstdio>
#include <memory>

#include "alf/file_sink.h"
#include "alf/striper.h"
#include "bench_util.h"
#include "netsim/net_path.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace ngp;

constexpr std::size_t kFile = 8 << 20;
constexpr std::size_t kAdu = 8192;
constexpr double kLaneBps = 25e6;

struct RunResult {
  double seconds;
  double goodput_mbps;
  bool intact;
};

RunResult run(std::size_t lanes, double loss) {
  EventLoop loop;
  std::vector<std::unique_ptr<DuplexChannel>> channels;
  std::vector<std::unique_ptr<LinkPath>> paths;
  std::vector<std::unique_ptr<alf::AlfSender>> senders;
  std::vector<std::unique_ptr<alf::AlfReceiver>> receivers;
  std::vector<alf::AlfSender*> tx;
  std::vector<alf::AlfReceiver*> rx;

  for (std::size_t i = 0; i < lanes; ++i) {
    LinkConfig cfg;
    cfg.bandwidth_bps = kLaneBps;
    cfg.propagation_delay = 3 * kMillisecond;
    cfg.queue_limit = 1 << 16;
    cfg.seed = 3000 + i;
    channels.push_back(std::make_unique<DuplexChannel>(loop, cfg));
    channels.back()->forward.set_loss_rate(loss);
    auto& ch = *channels.back();
    paths.push_back(std::make_unique<LinkPath>(ch.forward));
    LinkPath* data = paths.back().get();
    paths.push_back(std::make_unique<LinkPath>(ch.reverse));
    LinkPath* fb_tx = paths.back().get();
    paths.push_back(std::make_unique<LinkPath>(ch.reverse));
    LinkPath* fb_rx = paths.back().get();

    alf::SessionConfig scfg;
    scfg.session_id = static_cast<std::uint16_t>(i + 1);
    scfg.nack_delay = 15 * kMillisecond;
    senders.push_back(std::make_unique<alf::AlfSender>(loop, *data, *fb_rx, scfg));
    receivers.push_back(std::make_unique<alf::AlfReceiver>(loop, *data, *fb_tx, scfg));
    tx.push_back(senders.back().get());
    rx.push_back(receivers.back().get());
  }

  alf::AlfStriper striper(tx);
  alf::StripeCollector collector(rx);
  alf::FileSink sink(kFile);
  collector.set_on_adu([&](std::size_t, Adu&& adu) { (void)sink.place(adu); });

  ByteBuffer file(kFile);
  Rng rng(0xE7);
  rng.fill(file.span());
  for (std::size_t off = 0; off < kFile; off += kAdu) {
    const std::size_t len = std::min(kAdu, kFile - off);
    if (!striper.send_adu(FileRegionName{off, len}.to_name(),
                          file.span().subspan(off, len))
             .ok()) {
      std::abort();
    }
  }
  striper.finish();
  loop.run();

  RunResult r;
  r.seconds = to_seconds(loop.now());
  r.goodput_mbps = megabits_per_second(sink.bytes_placed(), r.seconds);
  r.intact = ByteBuffer(sink.contents()) == file;
  return r;
}

}  // namespace

int main() {
  std::printf("=== E7 (§7 extension): ADU striping across parallel lanes ===\n");
  std::printf("%zu MB transfer, %.0f Mb/s per lane\n\n", kFile >> 20, kLaneBps / 1e6);

  for (double loss : {0.0, 0.02}) {
    std::printf("-- %.0f%% per-lane loss --\n", loss * 100);
    std::printf("%6s | %8s | %10s | %9s | %7s\n", "lanes", "time(s)", "Mb/s",
                "scaling", "intact");
    double base = 0;
    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
      RunResult r = run(lanes, loss);
      if (lanes == 1) base = r.goodput_mbps;
      std::printf("%6zu | %8.3f | %10.1f | %8.2fx | %7s\n", lanes, r.seconds,
                  r.goodput_mbps, r.goodput_mbps / base, r.intact ? "yes" : "NO");
      ngp::bench::emit_json("E7_JSON", ngp::bench::JsonWriter()
                                           .field("loss", loss)
                                           .field("lanes", lanes)
                                           .field("seconds", r.seconds)
                                           .field("goodput_mbps", r.goodput_mbps)
                                           .field("scaling", r.goodput_mbps / base)
                                           .field("intact", r.intact)
                                           .str());
    }
  }
  std::printf("\nshape: aggregate goodput scales with lane count because every\n"
              "ADU is self-describing — no inter-lane coordination, no hot spot\n"
              "(the paper's parallel-processor argument, §7).\n");
  return 0;
}
