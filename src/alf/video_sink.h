// video_sink.h — real-time video assembly from VideoRegion-named ADUs.
//
// §5's streaming example: each ADU names its place "in space (where on the
// screen it goes) and in time (which video frame it is a part of)", the
// application "accepts less than perfect delivery and continues unchecked"
// (RetransmitPolicy::kNone), and timestamps drive playout regeneration
// (§3's timestamping function). A tile missing at its frame's playout
// deadline is concealed with the co-located tile of the previous frame —
// the new data that eventually "fixes the consequences of the loss" arrives
// with the next frame.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "alf/adu.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace ngp::obs {
class MetricSink;
}  // namespace ngp::obs

namespace ngp::alf {

struct VideoSinkStats {
  std::uint64_t tiles_placed = 0;
  std::uint64_t tiles_late = 0;     ///< arrived after the frame's deadline
  std::uint64_t tiles_lost = 0;     ///< reported lost by the transport
  std::uint64_t frames_rendered = 0;
  std::uint64_t frames_complete = 0;     ///< rendered with every tile fresh
  std::uint64_t frames_concealed = 0;    ///< rendered with >=1 concealed tile
  std::uint64_t tiles_concealed = 0;
};

/// Assembles tiled video frames under a playout clock.
class VideoSink {
 public:
  /// Geometry: frames are `tiles_x` x `tiles_y` tiles of `tile_bytes` each.
  /// Playout: frame f's deadline is `playout_base + f * frame_interval`.
  VideoSink(std::uint16_t tiles_x, std::uint16_t tiles_y, std::size_t tile_bytes,
            SimTime playout_base, SimDuration frame_interval);

  /// Places one complete tile ADU at simulated time `now`. Tiles for
  /// already-rendered frames count late and are discarded.
  Status place(const Adu& adu, SimTime now);

  /// Chain-delivery variant (zero-copy datapath, DESIGN.md §12): a kRaw
  /// tile's segments scatter straight into the frame — the only copy the
  /// sink makes is final placement. Framed syntaxes flatten once first
  /// (their headers must be contiguous to parse).
  Status place(const AduChain& adu, SimTime now);

  /// Transport-level loss report (tile never arrived).
  void mark_lost(const AduName& name);

  /// Renders every frame whose deadline has passed (call as the playout
  /// clock advances). Missing tiles are concealed from the previous frame.
  void render_due(SimTime now);

  /// Frames [0, n) rendered so far.
  std::uint64_t frames_rendered() const noexcept { return stats_.frames_rendered; }
  const VideoSinkStats& stats() const noexcept { return stats_; }

  /// Writes playout counters into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;

  /// The most recently rendered frame image (tiles row-major).
  ConstBytes screen() const noexcept { return {screen_.data(), screen_.size()}; }

 private:
  std::size_t tile_index(std::uint16_t x, std::uint16_t y) const noexcept {
    return std::size_t{y} * tiles_x_ + x;
  }
  SimTime deadline(std::uint32_t frame) const noexcept {
    return playout_base_ + static_cast<SimDuration>(frame) * frame_interval_;
  }

  struct PendingFrame {
    std::vector<std::uint8_t> pixels;   ///< tiles_x*tiles_y*tile_bytes
    std::vector<bool> tile_present;
    std::size_t present_count = 0;
  };

  std::uint16_t tiles_x_, tiles_y_;
  std::size_t tile_bytes_;
  SimTime playout_base_;
  SimDuration frame_interval_;

  std::map<std::uint32_t, PendingFrame> pending_;
  std::uint32_t next_render_ = 0;  ///< next frame number to render
  std::vector<std::uint8_t> screen_;
  VideoSinkStats stats_;
};

}  // namespace ngp::alf
