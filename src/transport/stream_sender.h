// stream_sender.h — sending side of the TCP-like baseline transport.
//
// Implements the classic loss-recovery model the paper contrasts ALF with
// (§5): "the protocol will suspend delivery of data to the receiving
// client, and retransmit from a copy of the data saved at the sender."
// Mechanisms, per 1990 state of the art ([3], Jacobson):
//
//   * byte sequence numbers, cumulative ACKs
//   * sliding window = min(peer advertised window, congestion window)
//   * slow start + AIMD congestion avoidance
//   * RTO from SRTT/RTTVAR (Jacobson/Karels), Karn's rule on samples
//   * fast retransmit on 3 duplicate ACKs
//
// The sender necessarily buffers every unacknowledged byte — the
// "buffering for retransmission" data-manipulation cost of §3.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "netsim/net_path.h"
#include "util/event_loop.h"

namespace ngp::obs {
class MetricSink;
}  // namespace ngp::obs

namespace ngp {

struct StreamSenderConfig {
  std::size_t send_buffer_limit = 4 << 20;   ///< bytes app may have queued
};

struct StreamSenderStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t bytes_sent = 0;       ///< payload bytes incl. rtx
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t acks_received = 0;
};

/// One direction of a reliable in-order byte stream (sender half).
class StreamSender {
 public:
  /// `data_out` carries DATA segments; `ack_in` delivers the peer's ACKs
  /// (the constructor registers the handler on it, the destructor clears it).
  StreamSender(EventLoop& loop, NetPath& data_out, NetPath& ack_in,
               StreamSenderConfig config = {});

  ~StreamSender();
  StreamSender(const StreamSender&) = delete;
  StreamSender& operator=(const StreamSender&) = delete;

  /// Appends application data to the stream. Returns bytes accepted
  /// (may be short when the send buffer is full).
  std::size_t send(ConstBytes data);

  /// Marks the end of the stream; a FIN rides the last segment.
  void close();

  /// True once every byte (and the FIN) has been cumulatively acked.
  bool finished() const noexcept;

  const StreamSenderStats& stats() const noexcept { return stats_; }
  /// Max payload per segment, clamped to the data path's frame size.
  std::size_t mss() const noexcept { return mss_; }
  SimDuration current_rto() const noexcept { return rto_; }
  double current_cwnd() const noexcept { return cwnd_; }

  /// Writes counters plus cwnd/rto gauges into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  void on_frame(ConstBytes frame);
  void on_ack(std::uint64_t ack, std::uint32_t window);
  void try_send();
  void transmit(std::uint64_t seq, std::size_t len, bool retransmission);
  void arm_rto();
  void on_rto();
  ConstBytes buffered(std::uint64_t seq, std::size_t len) const;

  EventLoop& loop_;
  NetPath& out_;
  NetPath& ack_in_;
  StreamSenderConfig cfg_;
  const std::size_t mss_;
  StreamSenderStats stats_;

  // Scratch for buffered(): the deque is not contiguous, so reads are
  // staged through this per-sender buffer (a member, not function-local
  // static state, so independent senders never share or leak storage).
  mutable std::vector<std::uint8_t> read_scratch_;

  // Stream state. buf_ holds [buf_base_, buf_base_+buf_.size()).
  std::deque<std::uint8_t> buf_;
  std::uint64_t buf_base_ = 0;
  std::uint64_t write_next_ = 0;  ///< end of data the app has handed us
  std::uint64_t snd_una_ = 0;     ///< oldest unacked byte
  std::uint64_t snd_nxt_ = 0;     ///< next byte to transmit fresh
  bool fin_queued_ = false;
  bool fin_acked_ = false;

  // Flow/congestion control.
  std::uint32_t peer_window_ = 65535;
  double cwnd_ = 0;     // bytes
  double ssthresh_ = 0; // bytes

  // RTT estimation (Jacobson/Karels).
  bool have_srtt_ = false;
  double srtt_ = 0, rttvar_ = 0;  // seconds
  SimDuration rto_;
  std::uint64_t sample_seq_ = 0;   ///< seq whose ACK we time; 0 = none
  SimTime sample_sent_at_ = 0;

  // Timers / dupack.
  EventId rto_timer_ = 0;
  std::uint64_t last_ack_ = 0;
  int dup_ack_count_ = 0;

  // Scratch for segment assembly (avoids per-segment allocation).
  ByteBuffer scratch_;
};

}  // namespace ngp
