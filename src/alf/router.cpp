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

  // ALF frames: the prefix peeks name the plane and session, the demux
  // calls sessiond::Dispatcher makes; header checks stay with the
  // endpoints, which decode the frame anyway. Directions as is_feedback
  // maps them: NACK, PROGRESS and RESUME feed the feedback plane, DATA,
  // DONE and PROBE the data plane.
  const auto type = peek_message_type(frame);
  const auto session = peek_flow_id(frame);
  if (!type || !session) {
    ++stats_.frames_undecodable;
    return;
  }
  const Plane p = is_feedback(*type) ? Plane::kFeedback : Plane::kData;
  auto it = planes_.find(std::make_pair(static_cast<std::uint8_t>(p), *session));
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

}  // namespace ngp::alf
