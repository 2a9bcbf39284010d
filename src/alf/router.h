// router.h — frame demultiplexing: many planes over one transmission path.
//
// §3 lists multiplexing among the transfer-control functions ("several
// data streams may interleave entering or leaving a host. These must be
// delivered properly, both to insure basic function, and to prevent
// security problems arising from mis-delivery"), and §6 concedes demux is
// the one control step that must precede manipulation.
//
// A Link delivers to exactly one handler. FrameRouter takes that slot and
// fans frames out by (message type, session id):
//
//   * the DATA plane of session s   — kData / kDone / kProbe frames for s
//   * the FEEDBACK plane of session s — kNack / kProgress / kResume frames
//   * the HANDSHAKE plane           — negotiation frames (magic 'H')
//
// Each plane is itself a NetPath facade, so AlfSender / AlfReceiver /
// HandshakeResponder plug in unchanged. With a router on each end of a
// duplex channel, one pair of links carries any number of sessions in
// both directions — eliminating §8's per-layer multiplexing while keeping
// a single demux point ("layered multiplexing considered harmful", [18]).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include <string>

#include "alf/wire.h"
#include "netsim/net_path.h"

namespace ngp::obs {
class MetricSink;
}  // namespace ngp::obs

namespace ngp::alf {

struct RouterStats {
  std::uint64_t frames_routed = 0;
  std::uint64_t frames_unroutable = 0;  ///< no plane registered
  std::uint64_t frames_undecodable = 0; ///< neither ALF nor handshake
};

/// Demultiplexes one NetPath into per-(plane, session) NetPath facades.
class FrameRouter {
 public:
  /// Takes ownership of `path`'s delivery handler.
  explicit FrameRouter(NetPath& path);
  /// Clears the handler the constructor installed on `path`: it closes
  /// over `this`, so a frame delivered after teardown would call into
  /// freed memory. Frames arriving afterwards drop on a handlerless path.
  ~FrameRouter();

  FrameRouter(const FrameRouter&) = delete;
  FrameRouter& operator=(const FrameRouter&) = delete;

  /// DATA-plane facade for a session (kData, kDone and kProbe frames).
  NetPath& data_plane(std::uint16_t session);
  /// FEEDBACK-plane facade for a session (kNack, kProgress and kResume
  /// frames).
  NetPath& feedback_plane(std::uint16_t session);
  /// Handshake-plane facade (negotiation frames).
  NetPath& handshake_plane();

  const RouterStats& stats() const noexcept { return stats_; }

  /// Writes the demux counters into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  enum class Plane : std::uint8_t { kData, kFeedback, kHandshake };

  /// NetPath facade: send() passes through; set_handler() registers the
  /// plane's delivery slot in the router.
  class PlanePath final : public NetPath {
   public:
    PlanePath(FrameRouter& router, Plane plane, std::uint16_t session)
        : router_(router), plane_(plane), session_(session) {}

    bool send(ConstBytes frame) override { return router_.path_.send(frame); }
    void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }
    std::size_t max_frame_size() const override {
      return router_.path_.max_frame_size();
    }

    void deliver(ConstBytes frame) {
      if (handler_) handler_(frame);
    }
    bool has_handler() const noexcept { return static_cast<bool>(handler_); }

   private:
    FrameRouter& router_;
    [[maybe_unused]] Plane plane_;
    [[maybe_unused]] std::uint16_t session_;
    FrameHandler handler_;
  };

  void on_frame(ConstBytes frame);
  PlanePath& plane(Plane plane, std::uint16_t session);

  NetPath& path_;
  RouterStats stats_;
  std::map<std::pair<std::uint8_t, std::uint16_t>, std::unique_ptr<PlanePath>> planes_;
};

}  // namespace ngp::alf
