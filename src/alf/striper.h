// striper.h — striping an ADU stream across parallel paths/receivers.
//
// §7 of the paper: connecting a network to a parallel processor means "the
// solution seems to be to separate the network into several parts, each of
// which delivers part of the data to part of the processor. But how is the
// data to be dispatched to the correct part? ... if the data is organized
// into ADUs, each ADU will contain enough information to control its own
// delivery."
//
// AlfStriper fans one application ADU stream out over N independent ALF
// lanes (each lane = its own AlfSender / path / AlfReceiver, possibly on a
// different processor node). Because every fragment is self-describing and
// every ADU carries a receiver-meaningful name, the lanes need NO
// coordination: any node can place whatever arrives on its lane.
// StripeCollector is the receiving-side aggregate: it funnels the lanes'
// deliveries into one callback and reports completion when every lane
// completes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"

namespace ngp::alf {

struct StriperStats {
  std::vector<std::uint64_t> adus_per_lane;
  std::uint64_t adus_total = 0;
};

/// Sender-side fan-out over N ALF lanes.
class AlfStriper {
 public:
  /// Lane dispatch policy.
  enum class Policy {
    kRoundRobin,   ///< equal spread, deterministic
    kByNameHash,   ///< same name -> same lane (per-object affinity)
  };

  explicit AlfStriper(std::vector<AlfSender*> lanes, Policy policy = Policy::kRoundRobin);

  /// Sends one ADU on the lane the policy selects. Returns the lane's
  /// ADU id on success.
  Result<std::uint32_t> send_adu(const AduName& name, ConstBytes payload);

  /// Finishes every lane (each emits its own DONE).
  void finish();

  const StriperStats& stats() const noexcept { return stats_; }

  /// Writes dispatch counters (total + one per lane) into one source.
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  std::size_t pick_lane(const AduName& name) noexcept;

  std::vector<AlfSender*> lanes_;
  Policy policy_;
  std::size_t next_lane_ = 0;
  StriperStats stats_;
};

/// Receiver-side aggregation of N ALF lanes.
class StripeCollector {
 public:
  /// Registers on every receiver. Callbacks fire from any lane; `lane`
  /// identifies which.
  explicit StripeCollector(std::vector<AlfReceiver*> receivers);

  /// One callback for all lanes' complete ADUs.
  void set_on_adu(std::function<void(std::size_t lane, Adu&&)> fn) {
    on_adu_ = std::move(fn);
  }
  /// Aggregate loss report.
  void set_on_adu_lost(
      std::function<void(std::size_t lane, std::uint32_t, const AduName&, bool)> fn) {
    on_lost_ = std::move(fn);
  }
  /// Fires once all lanes have completed.
  void set_on_complete(std::function<void()> fn) { on_complete_ = std::move(fn); }

  bool complete() const noexcept { return complete_lanes_ == receivers_.size(); }
  std::uint64_t adus_delivered() const noexcept { return delivered_; }

 private:
  std::vector<AlfReceiver*> receivers_;
  std::size_t complete_lanes_ = 0;
  std::uint64_t delivered_ = 0;
  std::function<void(std::size_t, Adu&&)> on_adu_;
  std::function<void(std::size_t, std::uint32_t, const AduName&, bool)> on_lost_;
  std::function<void()> on_complete_;
};

}  // namespace ngp::alf
