#include "alf/video_sink.h"

#include "obs/metrics.h"

namespace ngp::alf {

VideoSink::VideoSink(std::uint16_t tiles_x, std::uint16_t tiles_y, std::size_t tile_bytes,
                     SimTime playout_base, SimDuration frame_interval)
    : tiles_x_(tiles_x), tiles_y_(tiles_y), tile_bytes_(tile_bytes),
      playout_base_(playout_base), frame_interval_(frame_interval),
      screen_(std::size_t{tiles_x} * tiles_y * tile_bytes, 0) {}

Status VideoSink::place(const Adu& adu, SimTime now) {
  if (adu.name.ns != NameSpace::kVideoRegion) {
    return Error{ErrorCode::kMalformed, "not a video-region ADU"};
  }
  const auto v = VideoRegionName::from_name(adu.name);
  if (v.tile_x >= tiles_x_ || v.tile_y >= tiles_y_) {
    return Error{ErrorCode::kOutOfRange, "tile outside frame"};
  }
  if (v.frame < next_render_ || now > deadline(v.frame)) {
    ++stats_.tiles_late;
    return Status::ok();  // too late to matter; not an error
  }

  // Single-copy placement: validate the decoded size on a zero-copy view,
  // then decode straight into the tile's slot in the pending frame — no
  // intermediate tile buffer.
  auto view = decode_octets_view(adu.syntax, adu.payload.span());
  if (!view) return view.error();
  if (view->size() != tile_bytes_) {
    return Error{ErrorCode::kMalformed, "tile size mismatch"};
  }

  auto [it, inserted] = pending_.try_emplace(v.frame);
  PendingFrame& f = it->second;
  if (inserted) {
    f.pixels.resize(screen_.size());
    f.tile_present.assign(std::size_t{tiles_x_} * tiles_y_, false);
  }
  const std::size_t idx = tile_index(v.tile_x, v.tile_y);
  std::memcpy(f.pixels.data() + idx * tile_bytes_, view->data(), tile_bytes_);
  if (!f.tile_present[idx]) {
    f.tile_present[idx] = true;
    ++f.present_count;
  }
  ++stats_.tiles_placed;
  return Status::ok();
}

Status VideoSink::place(const AduChain& adu, SimTime now) {
  if (adu.syntax != TransferSyntax::kRaw) {
    Adu flat;
    flat.name = adu.name;
    flat.syntax = adu.syntax;
    flat.payload = adu.payload.flatten();
    return place(flat, now);
  }
  if (adu.name.ns != NameSpace::kVideoRegion) {
    return Error{ErrorCode::kMalformed, "not a video-region ADU"};
  }
  const auto v = VideoRegionName::from_name(adu.name);
  if (v.tile_x >= tiles_x_ || v.tile_y >= tiles_y_) {
    return Error{ErrorCode::kOutOfRange, "tile outside frame"};
  }
  if (v.frame < next_render_ || now > deadline(v.frame)) {
    ++stats_.tiles_late;
    return Status::ok();
  }
  if (adu.payload.size() != tile_bytes_) {
    return Error{ErrorCode::kMalformed, "tile size mismatch"};
  }

  auto [it, inserted] = pending_.try_emplace(v.frame);
  PendingFrame& f = it->second;
  if (inserted) {
    f.pixels.resize(screen_.size());
    f.tile_present.assign(std::size_t{tiles_x_} * tiles_y_, false);
  }
  const std::size_t idx = tile_index(v.tile_x, v.tile_y);
  std::uint8_t* dst = f.pixels.data() + idx * tile_bytes_;
  adu.payload.for_each([&dst](ConstBytes seg) {
    std::memcpy(dst, seg.data(), seg.size());
    dst += seg.size();
  });
  if (!f.tile_present[idx]) {
    f.tile_present[idx] = true;
    ++f.present_count;
  }
  ++stats_.tiles_placed;
  return Status::ok();
}

void VideoSink::mark_lost(const AduName& name) {
  if (name.ns != NameSpace::kVideoRegion) return;
  ++stats_.tiles_lost;
}

void VideoSink::render_due(SimTime now) {
  while (now >= deadline(next_render_)) {
    const std::uint32_t frame = next_render_++;
    ++stats_.frames_rendered;

    auto it = pending_.find(frame);
    if (it == pending_.end()) {
      // Whole frame missing: the previous screen persists (full
      // concealment).
      ++stats_.frames_concealed;
      stats_.tiles_concealed += std::size_t{tiles_x_} * tiles_y_;
      continue;
    }
    PendingFrame& f = it->second;
    const std::size_t total_tiles = std::size_t{tiles_x_} * tiles_y_;
    if (f.present_count == total_tiles) {
      ++stats_.frames_complete;
      screen_ = std::move(f.pixels);
    } else {
      ++stats_.frames_concealed;
      stats_.tiles_concealed += total_tiles - f.present_count;
      // Copy fresh tiles over the previous screen; absent tiles persist.
      for (std::size_t idx = 0; idx < total_tiles; ++idx) {
        if (f.tile_present[idx]) {
          std::memcpy(screen_.data() + idx * tile_bytes_,
                      f.pixels.data() + idx * tile_bytes_, tile_bytes_);
        }
      }
    }
    pending_.erase(it);
  }
}

void VideoSink::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("tiles_placed", stats_.tiles_placed);
  sink.counter("tiles_late", stats_.tiles_late);
  sink.counter("tiles_lost", stats_.tiles_lost);
  sink.counter("frames_rendered", stats_.frames_rendered);
  sink.counter("frames_complete", stats_.frames_complete);
  sink.counter("frames_concealed", stats_.frames_concealed);
  sink.counter("tiles_concealed", stats_.tiles_concealed);
}

}  // namespace ngp::alf
