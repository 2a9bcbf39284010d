#include "alf/striper.h"

#include "obs/metrics.h"

namespace ngp::alf {

AlfStriper::AlfStriper(std::vector<AlfSender*> lanes, Policy policy)
    : lanes_(std::move(lanes)), policy_(policy) {
  stats_.adus_per_lane.assign(lanes_.size(), 0);
}

std::size_t AlfStriper::pick_lane(const AduName& name) noexcept {
  switch (policy_) {
    case Policy::kRoundRobin: {
      const std::size_t lane = next_lane_;
      next_lane_ = (next_lane_ + 1) % lanes_.size();
      return lane;
    }
    case Policy::kByNameHash: {
      // Fibonacci hash over the name fields: stable name -> lane affinity.
      std::uint64_t h = 0x9E3779B97F4A7C15ull;
      h ^= name.a + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h ^= name.b + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h ^= name.c + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h ^= static_cast<std::uint64_t>(name.ns);
      return static_cast<std::size_t>(h % lanes_.size());
    }
  }
  return 0;
}

Result<std::uint32_t> AlfStriper::send_adu(const AduName& name, ConstBytes payload) {
  if (lanes_.empty()) return Error{ErrorCode::kClosed, "no lanes"};
  const std::size_t lane = pick_lane(name);
  auto r = lanes_[lane]->send_adu(name, payload);
  if (r.ok()) {
    ++stats_.adus_per_lane[lane];
    ++stats_.adus_total;
  }
  return r;
}

void AlfStriper::finish() {
  for (AlfSender* lane : lanes_) lane->finish();
}

StripeCollector::StripeCollector(std::vector<AlfReceiver*> receivers)
    : receivers_(std::move(receivers)) {
  for (std::size_t lane = 0; lane < receivers_.size(); ++lane) {
    AlfReceiver* rx = receivers_[lane];
    rx->set_on_adu([this, lane](Adu&& adu) {
      ++delivered_;
      if (on_adu_) on_adu_(lane, std::move(adu));
    });
    rx->set_on_adu_lost(
        [this, lane](std::uint32_t id, const AduName& name, bool known) {
          if (on_lost_) on_lost_(lane, id, name, known);
        });
    rx->set_on_complete([this] {
      ++complete_lanes_;
      if (complete_lanes_ == receivers_.size() && on_complete_) on_complete_();
    });
  }
}

void AlfStriper::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("adus_total", stats_.adus_total);
  for (std::size_t lane = 0; lane < stats_.adus_per_lane.size(); ++lane) {
    sink.counter("lane" + std::to_string(lane) + ".adus",
                 stats_.adus_per_lane[lane]);
  }
}

}  // namespace ngp::alf
