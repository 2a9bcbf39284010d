// byte_stream_link.h — an UNFRAMED transmission path.
//
// §5 of the paper: "Fiber multiplexing based on wavelength division need
// not provide transmission framing at all." This link models that world
// (and classic serial lines): a continuous byte pipe with finite rate and
// delay, delivering bytes to the reader in arbitrary-size chunks that
// have no relationship to any message boundary. Impairments occur at BYTE
// granularity — corruption flips bits, loss deletes bytes (shifting
// everything after them) — so any protocol above must supply its own
// framing and resynchronization (§3's "Framing" transfer-control
// function; see netsim/framing.h).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "util/bytes.h"
#include "util/event_loop.h"
#include "util/rng.h"

namespace ngp::obs {
class MetricSink;
}  // namespace ngp::obs

namespace ngp {

struct ByteStreamConfig {
  double bandwidth_bps = 100e6;
  SimDuration propagation_delay = kMillisecond;
  std::size_t max_chunk = 512;      ///< reader sees chunks of 1..max_chunk
  double bit_flip_rate = 0.0;       ///< P(corruption) per byte
  double byte_loss_rate = 0.0;      ///< P(deletion) per byte — shifts stream
  std::size_t buffer_limit = 4 << 20;  ///< writer-side backlog cap
  std::uint64_t seed = 1;
};

struct ByteStreamStats {
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_corrupted = 0;
  std::uint64_t bytes_deleted = 0;
  std::uint64_t bytes_rejected = 0;  ///< writer backlog full
};

/// Unidirectional unframed byte pipe.
class ByteStreamLink {
 public:
  using Reader = std::function<void(ConstBytes chunk)>;

  /// Destroying the pipe cancels the chunks it still has in flight.
  ByteStreamLink(EventLoop& loop, ByteStreamConfig config)
      : loop_(loop), config_(config), rng_(config.seed), events_(loop) {}

  ByteStreamLink(const ByteStreamLink&) = delete;
  ByteStreamLink& operator=(const ByteStreamLink&) = delete;

  void set_reader(Reader reader) { reader_ = std::move(reader); }

  /// Appends bytes to the pipe. Returns bytes accepted (short when the
  /// backlog cap is hit).
  std::size_t write(ConstBytes data);

  const ByteStreamStats& stats() const noexcept { return stats_; }

  /// Writes the pipe counters into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  void pump();

  EventLoop& loop_;
  ByteStreamConfig config_;
  Rng rng_;
  Reader reader_;
  ByteStreamStats stats_;

  std::deque<std::uint8_t> backlog_;
  SimTime tx_free_at_ = 0;
  bool pump_scheduled_ = false;
  OwnedEvents events_;  ///< pump and delivery events
};

}  // namespace ngp
