// fault.h — deterministic fault injection over any NetPath.
//
// §3 catalogues the failure modes a general-purpose protocol must face on
// real substrates; the base Link models only loss, reordering and
// duplication. FaultyPath is a decorator that adds the hostile remainder —
// payload bit-flips, header-byte mutation, frame truncation/extension,
// link outage windows (flaps), black-holing, replays and injected
// adversarial frames — all reproducible from a single RNG seed, so every
// robustness test and bench sweep is exactly repeatable.
//
// The decorator is protocol-agnostic: it mangles frames as byte strings.
// Protocol-aware adversaries (forged ALF headers, cross-session ids) are
// supplied from above via an AdversaryFn hook — netsim stays below alf in
// the layering.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "netsim/net_path.h"
#include "util/event_loop.h"
#include "util/rng.h"

namespace ngp::obs {
class MetricSink;
class FlightRecorder;
enum class FlightStage : std::uint8_t;
}  // namespace ngp::obs

namespace ngp {

/// Seeded description of the faults a FaultyPath injects. All probabilities
/// are per delivered frame and independent; several faults can hit the same
/// frame. Deterministic given `seed` and the traffic.
struct FaultPlan {
  std::uint64_t seed = 1;

  double payload_bitflip_rate = 0;  ///< P(one random bit flipped)
  double header_byte_rate = 0;      ///< P(one byte in the first 8 mutated)
  double truncate_rate = 0;         ///< P(frame cut to a random shorter length)
  double extend_rate = 0;           ///< P(1..64 random junk bytes appended)
  double blackhole_rate = 0;        ///< P(silent drop beyond the link's own loss)
  double replay_rate = 0;           ///< P(a recent frame is delivered again)
  SimDuration replay_delay = kMillisecond;  ///< how much later the replay lands
  std::size_t replay_history = 16;  ///< recent frames retained for replay

  /// Link flaps: the path is up for (outage_period - outage_duration), then
  /// dark for outage_duration, repeating. Frames offered or arriving during
  /// an outage vanish silently. 0 disables.
  SimDuration outage_period = 0;
  SimDuration outage_duration = 0;

  /// One-shot outages at absolute sim times (start, duration), in addition
  /// to any periodic flap above. A recovery bench kills the path at a known
  /// instant with these; the supervisor's clock starts from the same seed.
  std::vector<std::pair<SimTime, SimDuration>> scheduled_outages;

  /// P(the adversary hook is offered a delivered frame to forge from).
  double adversary_rate = 0;

  /// Frames injected at absolute sim times regardless of traffic.
  std::vector<std::pair<SimTime, ByteBuffer>> scheduled_frames;
};

/// Per-path fault counters (mirrors LinkStats) so tests and benches can
/// assert exactly which faults fired.
struct FaultStats {
  std::uint64_t frames_offered = 0;      ///< send() calls observed
  std::uint64_t frames_seen = 0;         ///< deliveries arriving from inner
  std::uint64_t frames_delivered = 0;    ///< deliveries passed up (post-fault)
  std::uint64_t payload_bitflips = 0;
  std::uint64_t header_mutations = 0;
  std::uint64_t truncations = 0;
  std::uint64_t extensions = 0;
  std::uint64_t outage_dropped = 0;      ///< offered or arrived during a flap
  std::uint64_t blackholed = 0;
  std::uint64_t replays = 0;
  std::uint64_t adversarial_injected = 0;
  std::uint64_t scheduled_injected = 0;
};

/// Crafts a forged frame from an observed one (e.g. an ALF fragment with a
/// forged adu_len or foreign session id). Return an empty buffer to skip.
using AdversaryFn = std::function<ByteBuffer(ConstBytes observed, Rng& rng)>;

/// NetPath decorator injecting the FaultPlan's faults. Sits between the
/// endpoints and any inner path (LinkPath, CellLink, MultiHopPath, ...):
/// send() passes through (subject to outage), deliveries from the inner
/// path are mangled before reaching the registered handler.
class FaultyPath final : public NetPath {
 public:
  FaultyPath(EventLoop& loop, NetPath& inner, FaultPlan plan);
  /// Clears the handler set_handler() installed on the inner path, and
  /// (through events_) cancels the injections still scheduled: planted
  /// frames and replays. Each closes over `this`, so a frame delivered
  /// after teardown would call into freed memory; now it drops on a
  /// handlerless path.
  ~FaultyPath();

  FaultyPath(const FaultyPath&) = delete;
  FaultyPath& operator=(const FaultyPath&) = delete;

  bool send(ConstBytes frame) override;
  void set_handler(FrameHandler handler) override;
  std::size_t max_frame_size() const override { return inner_.max_frame_size(); }

  /// Installs the protocol-aware forger (see AdversaryFn).
  void set_adversary(AdversaryFn fn) { adversary_ = std::move(fn); }

  /// True while the current flap window keeps the path dark.
  bool in_outage() const noexcept;

  const FaultStats& stats() const noexcept { return stats_; }
  const FaultPlan& plan() const noexcept { return plan_; }

  /// Writes the fault counters into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;

  /// Labels a frame with its flow-scoped trace id (injected from above,
  /// e.g. alf::peek_flight_tag); 0 = untraced.
  using FlightTagFn = std::uint64_t (*)(ConstBytes);

  /// Attaches the per-ADU flight recorder: corruption and swallow events
  /// are recorded on a new track named `track_name`, labelled via `tag`
  /// (tagging happens on the pristine frame, before any mangling).
  void set_flight(obs::FlightRecorder* flight, std::string_view track_name,
                  FlightTagFn tag);

 private:
  void on_inner_delivery(ConstBytes frame);
  void deliver(ConstBytes frame);
  void flight_note(obs::FlightStage stage, ConstBytes frame,
                   std::uint64_t trace_id);

  EventLoop& loop_;
  NetPath& inner_;
  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  FrameHandler handler_;
  AdversaryFn adversary_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;
  FlightTagFn flight_tag_ = nullptr;
  std::deque<ByteBuffer> history_;  ///< recent frames, replay source
  bool registered_ = false;  ///< set_handler() installed ours on inner_
  OwnedEvents events_;       ///< planted-frame and replay events
};

}  // namespace ngp
