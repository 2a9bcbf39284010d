// video_stream — the paper's real-time media scenario (§5).
//
// A video source streams tiled frames over a lossy link in real time. The
// application chose RetransmitPolicy::kNone: "the application accepts less
// than perfect delivery and continues unchecked." Every tile ADU is named
// in space (tile x,y) and time (frame number, timestamp), so the receiver
// renders each frame at its playout deadline with whatever tiles arrived,
// concealing the rest from the previous frame.
//
//   $ ./video_stream [loss_percent] [seconds]
#include <cstdio>
#include <cstdlib>

#include "alf/jitter.h"
#include "alf/video_sink.h"
#include "netsim/net_path.h"
#include "sessiond/sessiond.h"
#include "util/rng.h"

using namespace ngp;

namespace {

constexpr std::uint16_t kTilesX = 8, kTilesY = 6;    // 48 tiles/frame
constexpr std::size_t kTileBytes = 1024;             // ~48 KB/frame
constexpr SimDuration kFrameInterval = 40 * kMillisecond;  // 25 fps
constexpr SimDuration kPlayoutDelay = 120 * kMillisecond;  // jitter buffer

}  // namespace

int main(int argc, char** argv) {
  const double loss = argc > 1 ? std::atof(argv[1]) / 100.0 : 0.03;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 4.0;
  const auto frames = static_cast<std::uint32_t>(seconds / to_seconds(kFrameInterval));

  std::printf("video: %ux%u tiles x %zu B, 25 fps, %.1f%% loss, %u frames\n",
              kTilesX, kTilesY, kTileBytes, loss * 100, frames);

  EventLoop loop;
  LinkConfig cfg;
  cfg.bandwidth_bps = 30e6;  // ~2.4x the stream's ~12 Mb/s
  cfg.propagation_delay = 10 * kMillisecond;
  cfg.queue_limit = 1 << 14;
  cfg.seed = 99;
  DuplexChannel ch(loop, cfg);
  ch.forward.set_loss_rate(loss);
  LinkPath data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);

  sessiond::Sessiond daemon(loop);
  const alf::SessionConfig session{
      .checksum = ChecksumKind::kInternet,
      .retransmit = alf::RetransmitPolicy::kNone};  // never wait
  auto handle = daemon.open(session, {&data, &fb_tx, &fb_rx});
  if (!handle.ok()) {
    std::printf("open failed: %s\n", handle.error().to_string().c_str());
    return 1;
  }
  sessiond::AlfSession& sess = *handle.value();

  alf::VideoSink sink(kTilesX, kTilesY, kTileBytes, kPlayoutDelay, kFrameInterval);
  // Regenerate inter-packet timing from the carried timestamps (§3's
  // timestamping function): the jitter estimate tells us how much playout
  // delay this path actually needs.
  alf::PlayoutClock playout(kPlayoutDelay);
  sess.set_on_adu([&](Adu&& adu) {
    const auto v = VideoRegionName::from_name(adu.name);
    playout.on_arrival(loop.now(),
                       static_cast<SimDuration>(v.timestamp_ms) * kMillisecond);
    if (auto s = sink.place(adu, loop.now()); !s.is_ok()) {
      std::printf("tile rejected: %s\n", s.to_string().c_str());
    }
  });
  sess.set_on_adu_lost([&](std::uint32_t, const AduName& name, bool known) {
    if (known) sink.mark_lost(name);
  });

  // Playout clock: render due frames every frame interval.
  std::function<void()> render_tick = [&] {
    sink.render_due(loop.now());
    if (sink.frames_rendered() < frames) {
      loop.schedule_after(kFrameInterval, render_tick);
    }
  };
  loop.schedule_after(kPlayoutDelay, render_tick);

  // Source: emit one frame of tiles every interval, in real time.
  Rng content(1);
  std::uint32_t frame_no = 0;
  ByteBuffer tile(kTileBytes);
  std::function<void()> capture_tick = [&] {
    for (std::uint16_t y = 0; y < kTilesY; ++y) {
      for (std::uint16_t x = 0; x < kTilesX; ++x) {
        content.fill(tile.span());
        const VideoRegionName name{
            frame_no, x, y,
            static_cast<std::uint32_t>(frame_no * to_seconds(kFrameInterval) * 1000)};
        // Real-time source: if the transport cannot take it, the frame is
        // simply degraded — never block the capture pipeline.
        (void)sess.send_adu(name.to_name(), tile.span());
      }
    }
    if (++frame_no < frames) {
      loop.schedule_after(kFrameInterval, capture_tick);
    } else {
      sess.finish();
    }
  };
  capture_tick();

  loop.run();  // the playout ticks render exactly `frames` frames

  const auto& st = sink.stats();
  std::printf("\nrendered %llu frames: %llu complete, %llu concealed "
              "(%.1f%% tiles concealed)\n",
              static_cast<unsigned long long>(st.frames_rendered),
              static_cast<unsigned long long>(st.frames_complete),
              static_cast<unsigned long long>(st.frames_concealed),
              100.0 * static_cast<double>(st.tiles_concealed) /
                  (static_cast<double>(st.frames_rendered) * kTilesX * kTilesY));
  std::printf("tiles: %llu placed, %llu late, %llu reported lost\n",
              static_cast<unsigned long long>(st.tiles_placed),
              static_cast<unsigned long long>(st.tiles_late),
              static_cast<unsigned long long>(st.tiles_lost));
  std::printf("transport: %llu fragments sent, %llu ADU retransmissions "
              "(policy kNone: must be 0)\n",
              static_cast<unsigned long long>(
                  sess.sender().stats().fragments_sent),
              static_cast<unsigned long long>(
                  sess.sender().stats().adus_retransmitted));
  std::printf("measured interarrival jitter: %s -> adaptive playout delay "
              "would be %s (configured %s)\n",
              format_sim_time(playout.estimator().jitter()).c_str(),
              format_sim_time(playout.current_delay()).c_str(),
              format_sim_time(kPlayoutDelay).c_str());
  return 0;
}
