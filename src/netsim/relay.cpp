#include "netsim/relay.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace ngp {

MultiHopPath::MultiHopPath(EventLoop& loop, const std::vector<LinkConfig>& configs) {
  assert(!configs.empty());
  links_.reserve(configs.size());
  for (const auto& cfg : configs) {
    links_.push_back(std::make_unique<Link>(loop, cfg));
  }
  relays_.reserve(links_.size() - 1);
  for (std::size_t i = 0; i + 1 < links_.size(); ++i) {
    relays_.push_back(std::make_unique<Relay>(*links_[i], *links_[i + 1]));
  }
}

std::size_t MultiHopPath::max_frame_size() const {
  std::size_t mtu = links_.front()->config().mtu;
  for (const auto& l : links_) mtu = std::min(mtu, l->config().mtu);
  return mtu;
}

std::uint64_t MultiHopPath::total_congestion_drops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : relays_) total += r->stats().frames_dropped_congestion;
  return total;
}

void Relay::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("frames_forwarded", stats_.frames_forwarded);
  sink.counter("frames_dropped_congestion", stats_.frames_dropped_congestion);
}

void MultiHopPath::emit_metrics(obs::MetricSink& sink) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    obs::PrefixedSink hop(sink, "hop" + std::to_string(i) + ".");
    links_[i]->emit_metrics(hop);
  }
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    obs::PrefixedSink relay(sink, "relay" + std::to_string(i) + ".");
    relays_[i]->emit_metrics(relay);
  }
}

}  // namespace ngp
