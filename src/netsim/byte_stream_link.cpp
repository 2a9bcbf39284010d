#include "netsim/byte_stream_link.h"

#include "obs/metrics.h"

#include <algorithm>

namespace ngp {

std::size_t ByteStreamLink::write(ConstBytes data) {
  const std::size_t room =
      config_.buffer_limit > backlog_.size() ? config_.buffer_limit - backlog_.size() : 0;
  const std::size_t n = std::min(room, data.size());
  stats_.bytes_rejected += data.size() - n;
  backlog_.insert(backlog_.end(), data.begin(),
                  data.begin() + static_cast<std::ptrdiff_t>(n));
  stats_.bytes_written += n;
  if (!pump_scheduled_ && n > 0) {
    pump_scheduled_ = true;
    events_.schedule_at(std::max(loop_.now(), tx_free_at_), [this] { pump(); });
  }
  return n;
}

void ByteStreamLink::pump() {
  pump_scheduled_ = false;
  if (backlog_.empty()) return;

  // Serialize one chunk of random size (the pipe has no notion of the
  // writer's message boundaries).
  const std::size_t want = 1 + rng_.uniform(std::min(config_.max_chunk, backlog_.size()));
  ByteBuffer chunk(want);
  std::size_t out = 0;
  for (std::size_t i = 0; i < want; ++i) {
    std::uint8_t b = backlog_.front();
    backlog_.pop_front();
    if (rng_.bernoulli(config_.byte_loss_rate)) {
      ++stats_.bytes_deleted;
      continue;  // the byte simply never arrives; the stream shifts
    }
    if (rng_.bernoulli(config_.bit_flip_rate)) {
      b ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
      ++stats_.bytes_corrupted;
    }
    chunk[out++] = b;
  }
  chunk.resize(out);

  const SimTime start = std::max(loop_.now(), tx_free_at_);
  const SimDuration tx = transmission_time(want, config_.bandwidth_bps);
  tx_free_at_ = start + tx;
  const SimTime arrive = tx_free_at_ + config_.propagation_delay;

  if (out > 0) {
    events_.schedule_at(arrive, [this, c = std::move(chunk)] {
      stats_.bytes_delivered += c.size();
      if (reader_) reader_(c.span());
    });
  }

  if (!backlog_.empty()) {
    pump_scheduled_ = true;
    events_.schedule_at(tx_free_at_, [this] { pump(); });
  }
}

void ByteStreamLink::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("bytes_written", stats_.bytes_written);
  sink.counter("bytes_delivered", stats_.bytes_delivered);
  sink.counter("bytes_corrupted", stats_.bytes_corrupted);
  sink.counter("bytes_deleted", stats_.bytes_deleted);
  sink.counter("bytes_rejected", stats_.bytes_rejected);
  sink.gauge("backlog_bytes", static_cast<double>(backlog_.size()));
}

}  // namespace ngp
