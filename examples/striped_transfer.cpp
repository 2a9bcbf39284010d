// striped_transfer — §7's parallel-processor scenario.
//
// "One of the design goals of a parallel processor is to avoid building
// any one hot spot which must run at the aggregate speed of the total
// processor... The solution seems to be to separate the network into
// several parts, each of which delivers part of the data to part of the
// processor... if the data is organized into ADUs, each ADU will contain
// enough information to control its own delivery."
//
// This example stripes a 4 MB transfer across 4 independent 25 Mb/s lanes
// (aggregate 100 Mb/s). Each lane terminates at a different "node" of the
// receiving parallel machine; every node places its ADUs directly into the
// shared file image using only the names the ADUs carry. No node ever
// coordinates with another.
//
//   $ ./striped_transfer [lanes]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "alf/file_sink.h"
#include "alf/striper.h"
#include "netsim/net_path.h"
#include "sessiond/sessiond.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace ngp;

int main(int argc, char** argv) {
  const std::size_t lanes = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
  constexpr std::size_t kFile = 4 << 20, kAdu = 8192;
  constexpr double kLaneBps = 25e6;

  std::printf("striping %zu MB over %zu lanes of %.0f Mb/s (aggregate %.0f Mb/s)\n",
              kFile >> 20, lanes, kLaneBps / 1e6,
              kLaneBps * static_cast<double>(lanes) / 1e6);

  EventLoop loop;
  sessiond::Sessiond daemon(loop);
  std::vector<std::unique_ptr<DuplexChannel>> channels;
  std::vector<std::unique_ptr<LinkPath>> paths;
  std::vector<sessiond::SessionHandle> lanes_open;
  std::vector<alf::AlfSender*> tx;
  std::vector<alf::AlfReceiver*> rx;

  for (std::size_t i = 0; i < lanes; ++i) {
    LinkConfig cfg;
    cfg.bandwidth_bps = kLaneBps;
    cfg.propagation_delay = 3 * kMillisecond;
    cfg.queue_limit = 1 << 16;
    cfg.seed = 1000 + i;
    channels.push_back(std::make_unique<DuplexChannel>(loop, cfg));
    channels.back()->forward.set_loss_rate(0.01);
    auto& ch = *channels.back();

    paths.push_back(std::make_unique<LinkPath>(ch.forward));
    LinkPath* data = paths.back().get();
    paths.push_back(std::make_unique<LinkPath>(ch.reverse));
    LinkPath* fb_tx = paths.back().get();
    paths.push_back(std::make_unique<LinkPath>(ch.reverse));
    LinkPath* fb_rx = paths.back().get();

    // One association per lane, each its own session id — every lane is an
    // independent flow in the session plane.
    const alf::SessionConfig session{
        .session_id = static_cast<std::uint16_t>(i + 1),
        .nack_delay = 15 * kMillisecond};
    auto handle = daemon.open(session, {data, fb_tx, fb_rx});
    if (!handle.ok()) {
      std::printf("lane %zu: open failed: %s\n", i,
                  handle.error().to_string().c_str());
      return 1;
    }
    lanes_open.push_back(std::move(handle.value()));
    tx.push_back(&lanes_open.back()->sender());
    rx.push_back(&lanes_open.back()->receiver());
  }

  alf::AlfStriper striper(tx);
  alf::StripeCollector collector(rx);

  // The shared file image plays the role of the parallel machine's
  // distributed memory: every node writes its share independently.
  alf::FileSink sink(kFile);
  std::vector<std::uint64_t> per_node_bytes(lanes, 0);
  collector.set_on_adu([&](std::size_t lane, Adu&& adu) {
    per_node_bytes[lane] += adu.payload.size();
    if (auto s = sink.place(adu); !s.is_ok()) {
      std::printf("node %zu: place failed: %s\n", lane, s.to_string().c_str());
    }
  });
  collector.set_on_complete([&] {
    std::printf("all nodes complete at t=%s\n", format_sim_time(loop.now()).c_str());
  });

  ByteBuffer file(kFile);
  Rng rng(0x51);
  rng.fill(file.span());
  for (std::size_t off = 0; off < kFile; off += kAdu) {
    const std::size_t len = std::min(kAdu, kFile - off);
    if (!striper.send_adu(FileRegionName{off, len}.to_name(),
                          file.span().subspan(off, len))
             .ok()) {
      std::printf("send failed at offset %zu\n", off);
      return 1;
    }
  }
  striper.finish();
  loop.run();

  const double secs = to_seconds(loop.now());
  std::printf("\ntransfer: %.3f s -> %.1f Mb/s aggregate goodput\n", secs,
              megabits_per_second(sink.bytes_placed(), secs));
  for (std::size_t i = 0; i < lanes; ++i) {
    std::printf("  node %zu received %6.2f%% of the file (%llu bytes)\n", i,
                100.0 * static_cast<double>(per_node_bytes[i]) / kFile,
                static_cast<unsigned long long>(per_node_bytes[i]));
  }
  std::printf("file intact: %s; out-of-order placements: %llu\n",
              ByteBuffer(sink.contents()) == file ? "yes" : "NO",
              static_cast<unsigned long long>(sink.out_of_order_placements()));
  return 0;
}
