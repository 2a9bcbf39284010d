#include "resilience/supervisor.h"

#include <algorithm>
#include <utility>

#include "alf/wire.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace ngp::resilience {

using alf::AlfReceiver;
using alf::AlfSender;

const char* to_string(SupervisorState s) noexcept {
  switch (s) {
    case SupervisorState::kRunning: return "running";
    case SupervisorState::kBackoff: return "backoff";
    case SupervisorState::kResuming: return "resuming";
    case SupervisorState::kCompleted: return "completed";
    case SupervisorState::kFailed: return "failed";
  }
  return "?";
}

SessionSupervisor::SessionSupervisor(EventLoop& loop, NetPath& data,
                                     NetPath& feedback_tx, NetPath& feedback_rx,
                                     SupervisorConfig config)
    : loop_(loop),
      data_(data),
      feedback_tx_(feedback_tx),
      feedback_rx_(feedback_rx),
      cfg_(std::move(config)),
      jitter_rng_(cfg_.seed != 0
                      ? cfg_.seed
                      : 0x73757076ull ^ (std::uint64_t{cfg_.session.session_id} << 8)) {
  epoch_ = cfg_.session.epoch;
  build_endpoints();
}

SessionSupervisor::~SessionSupervisor() { cancel_pending(); }

void SessionSupervisor::cancel_pending() {
  if (restart_timer_ != 0) {
    loop_.cancel(restart_timer_);
    restart_timer_ = 0;
  }
  if (resume_timer_ != 0) {
    loop_.cancel(resume_timer_);
    resume_timer_ = 0;
  }
}

alf::SessionConfig SessionSupervisor::incarnation_config() const {
  alf::SessionConfig c = cfg_.session;
  c.epoch = epoch_;
  return c;
}

void SessionSupervisor::build_endpoints() {
  const alf::SessionConfig c = incarnation_config();
  sender_ = std::make_unique<AlfSender>(loop_, data_, feedback_rx_, c);
  receiver_ = std::make_unique<AlfReceiver>(loop_, data_, feedback_tx_, c);
  receiver_->attach(cfg_.attach);
  if (priority_) receiver_->set_priority(priority_);
  if (flight_ != nullptr) {
    sender_->set_flight(flight_);
    receiver_->set_flight(flight_);
  }
  receiver_->set_on_adu([this](Adu&& a) {
    if (on_adu_) on_adu_(std::move(a));
  });
  // Installed only when the application asked for chains: the receiver
  // decides chain-vs-flatten delivery by the handler's presence.
  if (on_adu_chain_) {
    receiver_->set_on_adu_chain(
        [this](AduChain&& a) { on_adu_chain_(std::move(a)); });
  }
  receiver_->set_on_adu_lost(
      [this](std::uint32_t id, const AduName& name, bool known) {
        // The receiver closed this id as lost: no future RESUME will ask
        // for it again, so the supervision copy is dead weight.
        auto it = store_.find(id);
        if (it != store_.end()) {
          stats_.store_bytes -= it->second.payload.size();
          store_.erase(it);
        }
        if (on_adu_lost_) on_adu_lost_(id, name, known);
      });
  receiver_->set_on_complete([this] { on_receiver_complete(); });
  receiver_->set_on_session_failed([this] { on_endpoint_failed(); });
  sender_->set_on_session_failed([this] { on_endpoint_failed(); });
  sender_->set_on_resume(
      [this](const alf::ResumeMessage& m) { on_resume_heard(m); });
}

Result<std::uint32_t> SessionSupervisor::send_adu(const AduName& name,
                                                  ConstBytes payload) {
  if (state_ == SupervisorState::kFailed) {
    return Error{ErrorCode::kClosed, "session permanently failed"};
  }
  if (state_ == SupervisorState::kCompleted) {
    return Error{ErrorCode::kClosed, "session already complete"};
  }
  if (state_ != SupervisorState::kRunning) {
    // Recovery in progress: park the ADU; it is offered to the next
    // incarnation the moment the session resumes. Id 0 = "queued".
    deferred_.push_back({name, ByteBuffer(payload)});
    stats_.store_bytes += payload.size();
    return 0u;
  }
  auto r = sender_->send_adu(name, payload);
  if (r.ok()) {
    store_.emplace(*r, StoredAdu{name, ByteBuffer(payload)});
    stats_.store_bytes += payload.size();
  }
  return r;
}

void SessionSupervisor::finish() {
  app_finished_ = true;
  if (state_ == SupervisorState::kRunning) sender_->finish();
}

void SessionSupervisor::set_on_adu(std::function<void(Adu&&)> fn) {
  on_adu_ = std::move(fn);
}

void SessionSupervisor::set_on_adu_chain(std::function<void(AduChain&&)> fn) {
  on_adu_chain_ = std::move(fn);
  if (receiver_ && on_adu_chain_) {
    receiver_->set_on_adu_chain(
        [this](AduChain&& a) { on_adu_chain_(std::move(a)); });
  }
}

void SessionSupervisor::set_on_adu_lost(
    std::function<void(std::uint32_t, const AduName&, bool)> fn) {
  on_adu_lost_ = std::move(fn);
}

void SessionSupervisor::set_on_complete(std::function<void()> fn) {
  on_complete_ = std::move(fn);
}

void SessionSupervisor::set_priority(alf::PriorityFn fn) {
  priority_ = std::move(fn);
  if (receiver_) receiver_->set_priority(priority_);
}

void SessionSupervisor::on_endpoint_failed() {
  ++stats_.failures_observed;
  // Both endpoints may report the same outage (receiver stall watchdog AND
  // sender feedback watchdog); one restart covers both. Terminal states
  // and an already-scheduled restart absorb the duplicates.
  if (state_ != SupervisorState::kRunning &&
      state_ != SupervisorState::kResuming) {
    return;
  }
  if (resume_timer_ != 0) {
    loop_.cancel(resume_timer_);
    resume_timer_ = 0;
  }
  schedule_restart();
}

/// Ceiling of the restart backoff, before jitter.
constexpr SimDuration kRestartBackoffCap = 2 * kSecond;
/// Jitter span as a fraction of the backoff.
constexpr double kRestartJitter = 0.25;

void SessionSupervisor::schedule_restart() {
  if (restarts_done_ >= cfg_.max_restarts) {
    fail_permanently();
    return;
  }
  state_ = SupervisorState::kBackoff;
  const int shift = std::min(restarts_done_, 6);
  SimDuration backoff = std::min(cfg_.restart_backoff << shift, kRestartBackoffCap);
  const auto span = static_cast<std::uint64_t>(static_cast<double>(backoff) * kRestartJitter);
  backoff += static_cast<SimDuration>(jitter_rng_.uniform(span + 1));
  restart_timer_ = loop_.schedule_after(backoff, [this] {
    restart_timer_ = 0;
    do_restart();
  });
}

void SessionSupervisor::do_restart() {
  ++restarts_done_;
  ++stats_.restarts;
  ++epoch_;

  // Snapshot the dead incarnation's books, then rebuild both endpoints
  // within this one event callback: single-threaded simulation means no
  // frame can arrive between teardown and the new handlers registering.
  resume_snapshot_ = receiver_->resume_summary();
  cfg_.session.first_adu_id = sender_->next_adu_id();
  receiver_.reset();
  sender_.reset();
  build_endpoints();
  receiver_->restore(resume_snapshot_);
  if (state_ == SupervisorState::kCompleted) return;  // restore closed the books

  state_ = SupervisorState::kResuming;
  resume_retries_left_ = cfg_.max_resume_retries;
  send_resume();
}

/// RESUME retransmit interval while the sender has not resumed.
constexpr SimDuration kResumeRetry = 40 * kMillisecond;

void SessionSupervisor::send_resume() {
  alf::ResumeMessage m;
  m.session = cfg_.session.session_id;
  m.epoch = epoch_;
  m.closed_prefix = resume_snapshot_.closed_prefix;
  for (std::uint32_t id : resume_snapshot_.closed_above) {
    const std::uint64_t bit = std::uint64_t{id} - m.closed_prefix - 1;
    if (bit >= alf::ResumeMessage::kMaxBitmapBytes * 8) continue;
    const auto byte = static_cast<std::size_t>(bit / 8);
    if (m.bitmap.size() <= byte) m.bitmap.resize(byte + 1, 0);
    m.bitmap[byte] |= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  const ByteBuffer frame = alf::encode_resume(m);
  feedback_tx_.send(frame.span());
  ++stats_.resume_frames_sent;
  if (obs::kEnabled && flight_ != nullptr) {
    flight_->record(flight_track_, obs::FlightStage::kEpochResume,
                    /*trace_id=*/0, /*arg=*/epoch_);
  }
  resume_timer_ = loop_.schedule_after(kResumeRetry, [this] {
    resume_timer_ = 0;
    if (state_ != SupervisorState::kResuming) return;
    if (resume_retries_left_-- <= 0) {
      // The feedback channel swallowed every RESUME: this attempt failed;
      // burn another unit of the restart budget.
      schedule_restart();
      return;
    }
    ++stats_.resume_retries;
    send_resume();
  });
}

void SessionSupervisor::on_resume_heard(const alf::ResumeMessage& msg) {
  // Duplicate RESUMEs (retries racing the first arrival) must not re-stage
  // twice, and a stale epoch's RESUME must not disturb a live session.
  if (state_ != SupervisorState::kResuming || msg.epoch != epoch_) return;
  if (resume_timer_ != 0) {
    loop_.cancel(resume_timer_);
    resume_timer_ = 0;
  }

  // Delta resume: re-stage only what the receiver never closed, under the
  // ORIGINAL ids so its books reconcile; drop supervision copies of
  // everything it already has.
  for (auto it = store_.begin(); it != store_.end();) {
    if (msg.id_closed(it->first)) {
      ++stats_.adus_resume_skipped;
      stats_.store_bytes -= it->second.payload.size();
      it = store_.erase(it);
      continue;
    }
    auto r = sender_->send_adu_as(it->first, it->second.name,
                                  it->second.payload.span());
    if (r.ok()) ++stats_.adus_resent;
    ++it;
  }

  // ADUs the application offered mid-recovery get fresh ids now.
  for (auto& d : deferred_) {
    auto r = sender_->send_adu(d.name, d.payload.span());
    if (r.ok()) store_.emplace(*r, std::move(d));
  }
  deferred_.clear();

  if (app_finished_) sender_->finish();
  state_ = SupervisorState::kRunning;
}

void SessionSupervisor::on_receiver_complete() {
  if (state_ == SupervisorState::kCompleted ||
      state_ == SupervisorState::kFailed) {
    return;
  }
  state_ = SupervisorState::kCompleted;
  cancel_pending();
  store_.clear();
  deferred_.clear();
  stats_.store_bytes = 0;
  if (on_complete_) on_complete_();
}

void SessionSupervisor::fail_permanently() {
  state_ = SupervisorState::kFailed;
  stats_.gave_up = 1;
  cancel_pending();
  if (on_permanent_failure_) {
    // Exactly once: the callback is consumed.
    auto fn = std::move(on_permanent_failure_);
    on_permanent_failure_ = nullptr;
    fn();
  }
}

void SessionSupervisor::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("failures_observed", stats_.failures_observed);
  sink.counter("restarts", stats_.restarts);
  sink.counter("resume_frames_sent", stats_.resume_frames_sent);
  sink.counter("resume_retries", stats_.resume_retries);
  sink.counter("adus_resent", stats_.adus_resent);
  sink.counter("adus_resume_skipped", stats_.adus_resume_skipped);
  sink.counter("gave_up", stats_.gave_up);
  sink.counter("store_bytes", stats_.store_bytes);
  sink.gauge("state", static_cast<double>(state_));
  sink.gauge("epoch", static_cast<double>(epoch_));
}

void SessionSupervisor::register_metrics(obs::MetricsRegistry& reg,
                                         std::string prefix) const {
  reg.add_source(std::move(prefix),
                 [this](obs::MetricSink& sink) { emit_metrics(sink); });
}

void SessionSupervisor::set_flight(obs::FlightRecorder* flight) {
  flight_ = flight;
  if (flight_ != nullptr) flight_track_ = flight_->add_track("supervisor");
  if (sender_) sender_->set_flight(flight);
  if (receiver_) receiver_->set_flight(flight);
}

}  // namespace ngp::resilience
