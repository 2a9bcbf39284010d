#include "netsim/fault.h"

#include <algorithm>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace ngp {

FaultyPath::FaultyPath(EventLoop& loop, NetPath& inner, FaultPlan plan)
    : loop_(loop), inner_(inner), plan_(std::move(plan)), rng_(plan_.seed) {
  planted_.reserve(plan_.scheduled_frames.size());
  for (const auto& [when, frame] : plan_.scheduled_frames) {
    const std::size_t i = planted_.size();
    planted_.push_back(loop_.schedule_at(when, [this, i, f = ByteBuffer(frame.span())] {
      planted_[i] = 0;
      ++stats_.scheduled_injected;
      deliver(f.span());
    }));
  }
}

FaultyPath::~FaultyPath() {
  if (registered_) inner_.set_handler(nullptr);
  for (EventId id : planted_) {
    if (id != 0) loop_.cancel(id);
  }
  for (EventId id : replays_) loop_.cancel(id);
}

bool FaultyPath::in_outage() const noexcept {
  const SimTime now = loop_.now();
  for (const auto& [start, duration] : plan_.scheduled_outages) {
    if (now >= start && now < start + duration) return true;
  }
  if (plan_.outage_period <= 0 || plan_.outage_duration <= 0) return false;
  const SimDuration down = std::min(plan_.outage_duration, plan_.outage_period);
  const SimDuration phase = now % plan_.outage_period;
  return phase >= plan_.outage_period - down;
}

bool FaultyPath::send(ConstBytes frame) {
  ++stats_.frames_offered;
  if (in_outage()) {
    // A flapped link accepts the frame and loses it: outages are silent at
    // the sender, exactly like loss in flight.
    ++stats_.outage_dropped;
    flight_note(obs::FlightStage::kFaultDrop, frame, 0);
    return true;
  }
  return inner_.send(frame);
}

void FaultyPath::set_flight(obs::FlightRecorder* flight,
                            std::string_view track_name, FlightTagFn tag) {
  flight_ = flight;
  flight_tag_ = tag;
  if (flight_ != nullptr) flight_track_ = flight_->add_track(track_name);
}

void FaultyPath::flight_note(obs::FlightStage stage, ConstBytes frame,
                             std::uint64_t trace_id) {
  if (!obs::kEnabled || flight_ == nullptr) return;
  if (trace_id == 0 && flight_tag_ != nullptr) trace_id = flight_tag_(frame);
  flight_->record(flight_track_, stage, trace_id, frame.size());
}

void FaultyPath::set_handler(FrameHandler handler) {
  handler_ = std::move(handler);
  registered_ = true;
  inner_.set_handler([this](ConstBytes frame) { on_inner_delivery(frame); });
}

void FaultyPath::deliver(ConstBytes frame) {
  ++stats_.frames_delivered;
  if (handler_) handler_(frame);
}

constexpr std::size_t kHeaderBytes = 8;  ///< prefix length treated as "header"
constexpr std::uint64_t kExtendMax = 64;  ///< max junk bytes appended

void FaultyPath::on_inner_delivery(ConstBytes frame) {
  ++stats_.frames_seen;
  if (in_outage()) {
    ++stats_.outage_dropped;
    flight_note(obs::FlightStage::kFaultDrop, frame, 0);
    return;
  }
  if (rng_.bernoulli(plan_.blackhole_rate)) {
    ++stats_.blackholed;
    flight_note(obs::FlightStage::kFaultDrop, frame, 0);
    return;
  }

  // Pristine copy retained for replay (replays model the network repeating
  // an old frame verbatim, not repeating our corruption of it).
  history_.emplace_back(frame);
  while (history_.size() > std::max<std::size_t>(plan_.replay_history, 1)) {
    history_.pop_front();
  }
  if (rng_.bernoulli(plan_.replay_rate)) {
    const auto pick = static_cast<std::size_t>(rng_.uniform(history_.size()));
    ++stats_.replays;
    replays_.push_back(loop_.schedule_after(
        std::max<SimDuration>(plan_.replay_delay, 0),
        [this, f = ByteBuffer(history_[pick].span())] {
          replays_.pop_front();  // the oldest pending replay is this one
          deliver(f.span());
        }));
  }

  ByteBuffer forged;
  if (adversary_ && rng_.bernoulli(plan_.adversary_rate)) {
    forged = adversary_(frame, rng_);
  }

  // Tag from the pristine frame: a mangled header may no longer name its
  // flow, but the corruption event should still land on the right ADU.
  const std::uint64_t pristine_tag =
      (obs::kEnabled && flight_ != nullptr && flight_tag_ != nullptr)
          ? flight_tag_(frame)
          : 0;
  const std::uint64_t faults_before = stats_.payload_bitflips +
                                      stats_.header_mutations +
                                      stats_.truncations + stats_.extensions;

  ByteBuffer mangled(frame);
  if (!mangled.empty() && rng_.bernoulli(plan_.header_byte_rate)) {
    const std::size_t prefix = std::min(kHeaderBytes, mangled.size());
    const auto idx = static_cast<std::size_t>(rng_.uniform(prefix));
    mangled[idx] ^= static_cast<std::uint8_t>(rng_.uniform_range(1, 255));
    ++stats_.header_mutations;
  }
  if (!mangled.empty() && rng_.bernoulli(plan_.payload_bitflip_rate)) {
    const auto bit = static_cast<std::size_t>(rng_.uniform(mangled.size() * 8));
    mangled[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++stats_.payload_bitflips;
  }
  if (!mangled.empty() && rng_.bernoulli(plan_.truncate_rate)) {
    mangled.resize(static_cast<std::size_t>(rng_.uniform(mangled.size())));
    ++stats_.truncations;
  }
  if (rng_.bernoulli(plan_.extend_rate)) {
    const auto extra = static_cast<std::size_t>(rng_.uniform_range(1, kExtendMax));
    ByteBuffer junk(extra);
    rng_.fill(junk.span());
    mangled.append(junk.span());
    ++stats_.extensions;
  }

  const std::uint64_t faults_after = stats_.payload_bitflips +
                                     stats_.header_mutations +
                                     stats_.truncations + stats_.extensions;
  if (faults_after != faults_before) {
    flight_note(obs::FlightStage::kFaultCorrupt, mangled.span(), pristine_tag);
  }

  deliver(mangled.span());
  if (!forged.empty()) {
    ++stats_.adversarial_injected;
    deliver(forged.span());
  }
}

void FaultyPath::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("frames_offered", stats_.frames_offered);
  sink.counter("frames_seen", stats_.frames_seen);
  sink.counter("frames_delivered", stats_.frames_delivered);
  sink.counter("payload_bitflips", stats_.payload_bitflips);
  sink.counter("header_mutations", stats_.header_mutations);
  sink.counter("truncations", stats_.truncations);
  sink.counter("extensions", stats_.extensions);
  sink.counter("outage_dropped", stats_.outage_dropped);
  sink.counter("blackholed", stats_.blackholed);
  sink.counter("replays", stats_.replays);
  sink.counter("adversarial_injected", stats_.adversarial_injected);
  sink.counter("scheduled_injected", stats_.scheduled_injected);
}

void FaultyPath::register_metrics(obs::MetricsRegistry& reg, std::string prefix) const {
  reg.add_source(std::move(prefix),
                 [this](obs::MetricSink& sink) { emit_metrics(sink); });
}

}  // namespace ngp
