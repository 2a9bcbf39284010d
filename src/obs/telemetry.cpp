#include "obs/telemetry.h"

namespace ngp::obs {

TelemetryHub::TelemetryHub(EventLoop* loop, MetricsRegistry& reg,
                           TelemetryConfig cfg)
    : loop_(loop), reg_(reg), cfg_(cfg) {
  if (cfg_.interval <= 0) cfg_.interval = kMillisecond;
  if (cfg_.max_samples == 0) cfg_.max_samples = 1;
}

TelemetryHub::~TelemetryHub() { stop(); }

void TelemetryHub::add_watch(SloWatch watch, WatchFn fn) {
  watches_.push_back(Watch{std::move(watch), std::move(fn), true});
}

void TelemetryHub::start() {
  if (loop_ == nullptr || running()) return;
  sample_now();  // baseline: deltas start from here
  timer_ = loop_->schedule_after(cfg_.interval, [this] { tick(); });
}

void TelemetryHub::stop() {
  if (loop_ != nullptr && timer_ != 0) loop_->cancel(timer_);
  timer_ = 0;
}

void TelemetryHub::tick() {
  timer_ = 0;
  sample_now();
  // Re-arm only while the simulation still has other live work: our own
  // event has already fired, so pending() counts everything else. A hub
  // that re-armed unconditionally would keep EventLoop::run() going
  // forever; this way the tick above was the final, quiescent sample.
  if (loop_->pending() > 0) {
    timer_ = loop_->schedule_after(cfg_.interval, [this] { tick(); });
  }
}

void TelemetryHub::sample_now() {
  sample_at(loop_ != nullptr ? loop_->now()
                             : static_cast<SimTime>(stats_.samples_taken));
}

void TelemetryHub::sample_at(SimTime at) {
  Snapshot absolute;
  Snapshot delta = reg_.delta_snapshot(&absolute);
  if (samples_.size() >= cfg_.max_samples) {
    samples_.pop_front();
    ++stats_.samples_dropped;
  }
  samples_.push_back(TelemetrySample{at, reg_.delta_sequence(), std::move(delta)});
  ++stats_.samples_taken;
  stats_.last_sample_at = at;
  evaluate_watches(absolute, at);
}

void TelemetryHub::evaluate_watches(const Snapshot& absolute, SimTime at) {
  for (Watch& w : watches_) {
    const Sample* s = absolute.find(w.cfg.metric);
    if (s == nullptr) continue;
    double value = 0.0;
    switch (s->kind) {
      case Sample::Kind::kCounter:
        value = static_cast<double>(s->count);
        break;
      case Sample::Kind::kGauge:
        value = s->value;
        break;
      case Sample::Kind::kHistogram:
        value = histogram_percentile(*s, w.cfg.percentile);
        break;
    }
    const bool breached = w.cfg.fire_above ? value >= w.cfg.threshold
                                           : value <= w.cfg.threshold;
    if (breached) {
      if (w.armed) {
        w.armed = false;
        ++stats_.watchdog_firings;
        if (w.fn) w.fn(SloEvent{w.cfg.metric, value, w.cfg.threshold, at});
      }
    } else {
      w.armed = true;  // condition cleared: re-arm
    }
  }
}

std::string TelemetryHub::to_jsonl() const {
  std::string out;
  for (const TelemetrySample& s : samples_) {
    out += "{\"t\":" + std::to_string(s.at);
    out += ",\"seq\":" + std::to_string(s.seq);
    out += ",\"delta\":" + s.delta.to_json();
    out += "}\n";
  }
  return out;
}

void TelemetryHub::emit_metrics(MetricSink& sink) const {
  sink.counter("samples", stats_.samples_taken);
  sink.counter("samples_dropped", stats_.samples_dropped);
  sink.counter("watchdog_firings", stats_.watchdog_firings);
}

}  // namespace ngp::obs
