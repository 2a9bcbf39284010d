// relay.h — store-and-forward relay nodes and multi-hop paths.
//
// §2 of the paper distinguishes relay nodes from end systems, and §8 notes
// that intermediate entities "can operate at one or more layers without
// regard to the semantic content of the symbols being exchanged" — a relay
// forwards frames; it never touches ADU semantics. This module provides:
//
//   Relay        — joins an ingress link to an egress link. Frames that
//                  arrive while the egress queue is full are dropped: this
//                  is how CONGESTION loss (as opposed to random loss)
//                  arises in the simulator, with the drop probability an
//                  emergent property of offered load.
//   MultiHopPath — a NetPath over a chain of links joined by relays, so
//                  transports run unchanged across any number of hops.
#pragma once

#include <memory>
#include <vector>

#include "netsim/link.h"
#include "netsim/net_path.h"

namespace ngp {

struct RelayStats {
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_dropped_congestion = 0;  ///< egress refused (queue full)
};

/// Forwards every frame delivered by `ingress` into `egress`.
class Relay {
 public:
  Relay(Link& ingress, Link& egress) : ingress_(ingress), egress_(egress) {
    ingress.set_handler([this](ConstBytes frame) { forward(frame); });
  }
  /// Clears the ingress handler, which closes over `this`: a frame the
  /// ingress link delivers after teardown then drops instead of calling
  /// into freed memory.
  ~Relay() { ingress_.set_handler(nullptr); }

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  const RelayStats& stats() const noexcept { return stats_; }

  /// Writes the forwarding counters into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;
  /// Registers emit_metrics under `prefix` (e.g. "netsim.path.relay0").
  void register_metrics(obs::MetricsRegistry& reg, std::string prefix) const;

 private:
  void forward(ConstBytes frame) {
    if (egress_.send(frame)) {
      ++stats_.frames_forwarded;
    } else {
      ++stats_.frames_dropped_congestion;
    }
  }

  Link& ingress_;
  Link& egress_;
  RelayStats stats_;
};

/// A unidirectional multi-hop path: N links joined by N-1 relays.
///
/// send() enters the first link; the registered handler fires when a frame
/// survives every hop. Loss can occur per hop (each link's own loss model)
/// or by congestion at any relay.
class MultiHopPath final : public NetPath {
 public:
  /// Builds `configs.size()` links in series. Requires at least one.
  MultiHopPath(EventLoop& loop, const std::vector<LinkConfig>& configs);

  bool send(ConstBytes frame) override { return links_.front()->send(frame); }
  void set_handler(FrameHandler handler) override {
    links_.back()->set_handler(std::move(handler));
  }
  std::size_t max_frame_size() const override;

  std::size_t hop_count() const noexcept { return links_.size(); }
  Link& hop(std::size_t i) { return *links_.at(i); }
  /// Relay joining hop i to hop i+1; stats follow the uniform convention:
  /// path.relay(i).stats().
  const Relay& relay(std::size_t i) const { return *relays_.at(i); }

  /// Sum of congestion drops across all relays.
  std::uint64_t total_congestion_drops() const noexcept;

  /// Registers every hop (prefix.hopN) and relay (prefix.relayN).
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Relay>> relays_;
};

}  // namespace ngp
