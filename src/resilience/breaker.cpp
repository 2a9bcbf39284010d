#include "resilience/breaker.h"

#include <algorithm>
#include <limits>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace ngp::resilience {

const char* to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

SwitchingPath::SwitchingPath(EventLoop& loop, BreakerConfig cfg)
    : loop_(loop), cfg_(cfg) {}

SwitchingPath::~SwitchingPath() {
  if (poll_timer_ != 0) loop_.cancel(poll_timer_);
}

std::size_t SwitchingPath::add_path(NetPath& path, SampleFn sample) {
  Member m;
  m.path = &path;
  m.sample = std::move(sample);
  // Deliveries from EVERY member surface through the one handler: after a
  // failover the receiving endpoint keeps hearing frames without rewiring.
  path.set_handler([this](ConstBytes frame) {
    if (handler_) handler_(frame);
  });
  members_.push_back(std::move(m));
  return members_.size() - 1;
}

void SwitchingPath::start() {
  if (started_ || members_.empty()) return;
  started_ = true;
  // Baseline the counters so the first poll measures only what happened
  // after start() (members may have carried traffic already).
  for (auto& m : members_) {
    if (m.sample) m.last = m.sample();
  }
  poll_timer_ = loop_.schedule_after(cfg_.poll_interval, [this] {
    poll_timer_ = 0;
    poll();
  });
}

bool SwitchingPath::send(ConstBytes frame) {
  if (members_.empty()) return false;
  Member& m = members_[active_];
  if (m.state == BreakerState::kOpen) {
    // Every member is dark (an open active means no healthy alternative
    // existed at trip time). Still offer the frame — a breaker can be
    // wrong, and a dead path loses it anyway — but make the exposure
    // countable.
    ++stats_.sends_suppressed;
  }
  return m.path->send(frame);
}

void SwitchingPath::set_handler(FrameHandler handler) {
  handler_ = std::move(handler);
}

std::size_t SwitchingPath::max_frame_size() const {
  std::size_t mtu = std::numeric_limits<std::size_t>::max();
  for (const auto& m : members_) mtu = std::min(mtu, m.path->max_frame_size());
  return members_.empty() ? 0 : mtu;
}

/// EWMA weight of the newest poll's delivery ratio.
constexpr double kEwmaAlpha = 0.3;

void SwitchingPath::poll() {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& m = members_[i];
    if (!m.sample) continue;
    const PathSample s = m.sample();
    const std::uint64_t d_off = s.offered - m.last.offered;
    const std::uint64_t d_del = s.delivered - m.last.delivered;
    m.last = s;

    switch (m.state) {
      case BreakerState::kClosed: {
        if (d_off == 0) break;  // no traffic, no evidence either way
        const double ratio =
            std::min(1.0, static_cast<double>(d_del) / static_cast<double>(d_off));
        m.ewma = kEwmaAlpha * ratio + (1.0 - kEwmaAlpha) * m.ewma;
        ++m.evidence_polls;
        ++stats_.polls;
        if (m.evidence_polls >= cfg_.min_polls && m.ewma < cfg_.trip_below) {
          trip(i);
        }
        break;
      }
      case BreakerState::kOpen:
        if (loop_.now() >= m.retry_at) begin_half_open(i);
        break;
      case BreakerState::kHalfOpen:
        settle_half_open(i);
        break;
    }
  }

  // Re-arm only while something else is pending: an otherwise-finished
  // simulation must drain (same discipline as TelemetryHub::tick).
  if (loop_.pending() > 0) {
    poll_timer_ = loop_.schedule_after(cfg_.poll_interval, [this] {
      poll_timer_ = 0;
      poll();
    });
  }
}

void SwitchingPath::trip(std::size_t idx) {
  Member& m = members_[idx];
  m.state = BreakerState::kOpen;
  m.backoff = cfg_.open_backoff;
  m.retry_at = loop_.now() + m.backoff;
  ++stats_.trips;
  if (idx == active_) failover_from(idx);
}

void SwitchingPath::failover_from(std::size_t idx) {
  for (std::size_t j = 0; j < members_.size(); ++j) {
    if (j == idx || members_[j].state != BreakerState::kClosed) continue;
    active_ = j;
    ++stats_.failovers;
    if (obs::kEnabled && flight_ != nullptr) {
      flight_->record(flight_track_, obs::FlightStage::kFailover,
                      /*trace_id=*/0, /*arg=*/j);
    }
    return;
  }
  // No healthy member: keep the tripped one active; send() counts the
  // exposure and the half-open machinery keeps trying to recover it.
}

void SwitchingPath::begin_half_open(std::size_t idx) {
  Member& m = members_[idx];
  m.state = BreakerState::kHalfOpen;
  ++stats_.half_opens;
  // Probe delivery is judged from the same cumulative counters the monitor
  // already samples: everything offered/delivered from this instant until
  // the next poll is trial evidence (probes plus any organic traffic).
  m.probe_offered_base = m.last.offered;
  m.probe_delivered_base = m.last.delivered;
  if (probe_) {
    for (std::uint32_t k = 0; k < cfg_.probe_count; ++k) {
      ByteBuffer frame = probe_(probe_seq_++);
      if (frame.empty()) continue;
      m.path->send(frame.span());
      ++stats_.probes_sent;
      if (obs::kEnabled && flight_ != nullptr) {
        flight_->record(flight_track_, obs::FlightStage::kProbeTx,
                        /*trace_id=*/0, /*arg=*/idx);
      }
    }
  }
}

/// Ceiling of the open-state backoff, which doubles per failed trial.
constexpr SimDuration kOpenBackoffCap = 8 * kSecond;

void SwitchingPath::settle_half_open(std::size_t idx) {
  Member& m = members_[idx];
  const std::uint64_t d_off = m.last.offered - m.probe_offered_base;
  const std::uint64_t d_del = m.last.delivered - m.probe_delivered_base;
  // No probe builder and no organic traffic leaves a trial with no
  // evidence; that counts as a failure (a silent path earns no trust).
  const double ratio =
      d_off == 0 ? 0.0
                 : std::min(1.0, static_cast<double>(d_del) / static_cast<double>(d_off));
  if (ratio >= cfg_.close_above) {
    m.state = BreakerState::kClosed;
    m.ewma = 1.0;  // fresh trust; the EWMA restarts from health
    m.evidence_polls = 0;
    m.backoff = 0;
    ++stats_.closes;
    if (members_[active_].state != BreakerState::kClosed) failover_from(active_);
  } else {
    m.state = BreakerState::kOpen;
    ++stats_.reopens;
    m.backoff = std::min<SimDuration>(m.backoff * 2, kOpenBackoffCap);
    m.retry_at = loop_.now() + m.backoff;
  }
}

void SwitchingPath::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("polls", stats_.polls);
  sink.counter("trips", stats_.trips);
  sink.counter("failovers", stats_.failovers);
  sink.counter("half_opens", stats_.half_opens);
  sink.counter("probes_sent", stats_.probes_sent);
  sink.counter("reopens", stats_.reopens);
  sink.counter("closes", stats_.closes);
  sink.counter("sends_suppressed", stats_.sends_suppressed);
  sink.gauge("active", static_cast<double>(active_));
  for (std::size_t i = 0; i < members_.size(); ++i) {
    obs::PrefixedSink ms(sink, "path" + std::to_string(i) + ".");
    ms.gauge("state", static_cast<double>(members_[i].state));
    ms.gauge("ewma", members_[i].ewma);
  }
}

void SwitchingPath::set_flight(obs::FlightRecorder* flight) {
  flight_ = flight;
  if (flight_ != nullptr) flight_track_ = flight_->add_track("breaker");
}

}  // namespace ngp::resilience
