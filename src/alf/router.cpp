#include "alf/router.h"

#include "alf/negotiate.h"
#include "obs/metrics.h"

namespace ngp::alf {

FrameRouter::FrameRouter(NetPath& path) : path_(path) {
  path_.set_handler([this](ConstBytes frame) { on_frame(frame); });
}

FrameRouter::~FrameRouter() { path_.set_handler(nullptr); }

FrameRouter::PlanePath& FrameRouter::plane(Plane p, std::uint16_t session) {
  const auto key = std::make_pair(static_cast<std::uint8_t>(p), session);
  auto it = planes_.find(key);
  if (it == planes_.end()) {
    it = planes_.emplace(key, std::make_unique<PlanePath>(*this, p, session)).first;
  }
  return *it->second;
}

NetPath& FrameRouter::data_plane(std::uint16_t session) {
  return plane(Plane::kData, session);
}

NetPath& FrameRouter::feedback_plane(std::uint16_t session) {
  return plane(Plane::kFeedback, session);
}

NetPath& FrameRouter::handshake_plane() { return plane(Plane::kHandshake, 0); }

void FrameRouter::on_frame(ConstBytes frame) {
  // Handshake frames have their own magic and no session field yet.
  if (is_handshake_frame(frame)) {
    auto key = std::make_pair(static_cast<std::uint8_t>(Plane::kHandshake),
                              std::uint16_t{0});
    auto it = planes_.find(key);
    if (it != planes_.end() && it->second->has_handler()) {
      ++stats_.frames_routed;
      it->second->deliver(frame);
    } else {
      ++stats_.frames_unroutable;
    }
    return;
  }

  // ALF frames: peek type + session via the full decoder (verifies the
  // header checksum exactly once, here at the demux point).
  auto msg = decode_message(frame);
  if (!msg) {
    ++stats_.frames_undecodable;
    return;
  }
  Plane p;
  std::uint16_t session;
  switch (msg->type) {
    case MessageType::kData:
      p = Plane::kData;
      session = msg->data.session;
      break;
    case MessageType::kDone:
      p = Plane::kData;
      session = msg->done.session;
      break;
    case MessageType::kNack:
      p = Plane::kFeedback;
      session = msg->nack.session;
      break;
    case MessageType::kProgress:
      p = Plane::kFeedback;
      session = msg->progress.session;
      break;
    default:
      ++stats_.frames_undecodable;
      return;
  }
  auto it = planes_.find(std::make_pair(static_cast<std::uint8_t>(p), session));
  if (it == planes_.end() || !it->second->has_handler()) {
    ++stats_.frames_unroutable;
    return;
  }
  ++stats_.frames_routed;
  it->second->deliver(frame);
}

void FrameRouter::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("frames_routed", stats_.frames_routed);
  sink.counter("frames_unroutable", stats_.frames_unroutable);
  sink.counter("frames_undecodable", stats_.frames_undecodable);
}

void FrameRouter::register_metrics(obs::MetricsRegistry& reg, std::string prefix) const {
  reg.add_source(std::move(prefix),
                 [this](obs::MetricSink& sink) { emit_metrics(sink); });
}

}  // namespace ngp::alf
