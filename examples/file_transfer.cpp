// file_transfer — the paper's §5 file-transfer scenario, both ways.
//
// Transfers a 1 MB "file" across a lossy link twice:
//
//   1. TCP-like stream transport: bytes trickle to the application
//      strictly in order; a single loss stalls delivery until recovery.
//   2. ALF transport with FileRegion naming: the sender labels every ADU
//      with its byte range IN THE RECEIVER'S FILE, so the FileSink can
//      "copy the data into the file at the correct location, even though
//      intervening ADUs are missing" (§5).
//
// The example prints a delivery-progress timeline for both and verifies
// both receivers reconstructed the identical file.
//
//   $ ./file_transfer [loss_percent]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "alf/file_sink.h"
#include "netsim/net_path.h"
#include "sessiond/sessiond.h"
#include "transport/stream_receiver.h"
#include "transport/stream_sender.h"
#include "util/rng.h"

using namespace ngp;

namespace {

constexpr std::size_t kFileSize = 1 << 20;
constexpr std::size_t kAduSize = 8192;

ByteBuffer make_file() {
  ByteBuffer f(kFileSize);
  Rng rng(0xF11E);
  rng.fill(f.span());
  return f;
}

LinkConfig make_link(std::uint64_t seed) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 50e6;
  cfg.propagation_delay = 5 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  cfg.seed = seed;
  return cfg;
}

void print_progress(const char* who, EventLoop& loop, std::size_t bytes,
                    std::size_t total) {
  std::printf("  [%s] t=%-9s %3zu%% (%zu bytes)\n", who,
              format_sim_time(loop.now()).c_str(), bytes * 100 / total, bytes);
}

void run_stream(const ByteBuffer& file, double loss) {
  std::printf("\n--- TCP-like stream transport (in-order delivery) ---\n");
  EventLoop loop;
  DuplexChannel ch(loop, make_link(1), make_link(2));
  ch.forward.set_loss_rate(loss);
  LinkPath data(ch.forward), ack_tx(ch.reverse), ack_rx(ch.reverse);

  StreamSender sender(loop, data, ack_rx);
  StreamReceiver receiver(loop, data, ack_tx);

  ByteBuffer out(kFileSize);
  std::size_t written = 0, next_report = kFileSize / 4;
  receiver.set_on_data([&](ConstBytes b) {
    std::memcpy(out.data() + written, b.data(), b.size());
    written += b.size();
    if (written >= next_report) {
      print_progress("stream", loop, written, kFileSize);
      next_report += kFileSize / 4;
    }
  });

  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    offset += sender.send(file.subspan(offset, 128 * 1024));
    if (offset < kFileSize) {
      loop.schedule_after(kMillisecond, feed);
    } else {
      sender.close();
    }
  };
  feed();
  loop.run();

  std::printf("  done at t=%s; retransmits=%llu; intact=%s\n",
              format_sim_time(loop.now()).c_str(),
              static_cast<unsigned long long>(sender.stats().retransmits),
              out == file ? "yes" : "NO");
}

void run_alf(const ByteBuffer& file, double loss) {
  std::printf("\n--- ALF transport (out-of-order FileRegion ADUs) ---\n");
  EventLoop loop;
  DuplexChannel ch(loop, make_link(3), make_link(4));
  ch.forward.set_loss_rate(loss);
  LinkPath data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);

  sessiond::Sessiond daemon(loop);
  const alf::SessionConfig session{.nack_delay = 15 * kMillisecond};
  auto handle = daemon.open(session, {&data, &fb_tx, &fb_rx});
  if (!handle.ok()) {
    std::printf("  open failed: %s\n", handle.error().to_string().c_str());
    return;
  }
  sessiond::AlfSession& s = *handle.value();

  alf::FileSink sink(kFileSize);
  std::size_t next_report = kFileSize / 4;
  s.set_on_adu([&](Adu&& adu) {
    if (auto s = sink.place(adu); !s.is_ok()) {
      std::printf("  place failed: %s\n", s.to_string().c_str());
    }
    if (sink.bytes_placed() >= next_report) {
      print_progress("alf", loop, sink.bytes_placed(), kFileSize);
      next_report += kFileSize / 4;
    }
  });
  s.set_on_adu_lost([&](std::uint32_t, const AduName& name, bool known) {
    if (known) sink.mark_lost(name);
  });

  // The sender names each ADU with its receiver-file byte range. With raw
  // transfer syntax the receiver offset equals the source offset; with a
  // size-changing syntax the sender would compute the post-conversion
  // placement here (§5's architecture of presentation conversion).
  for (std::size_t off = 0; off < kFileSize; off += kAduSize) {
    const std::size_t len = std::min(kAduSize, kFileSize - off);
    auto name = FileRegionName{off, len}.to_name();
    if (!s.send_adu(name, file.span().subspan(off, len)).ok()) {
      std::printf("send_adu failed\n");
      return;
    }
  }
  s.finish();
  loop.run();

  std::printf("  done at t=%s; ADU rtx=%llu; out-of-order placements=%llu; "
              "holes=%zu; intact=%s\n",
              format_sim_time(loop.now()).c_str(),
              static_cast<unsigned long long>(
                  s.sender().stats().adus_retransmitted),
              static_cast<unsigned long long>(sink.out_of_order_placements()),
              sink.holes().size(),
              ByteBuffer(sink.contents()) == file ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const double loss = argc > 1 ? std::atof(argv[1]) / 100.0 : 0.02;
  std::printf("file transfer: %zu bytes, %.1f%% packet loss\n", kFileSize,
              loss * 100);
  const ByteBuffer file = make_file();
  run_stream(file, loss);
  run_alf(file, loss);
  return 0;
}
