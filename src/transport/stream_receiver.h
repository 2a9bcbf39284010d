// stream_receiver.h — receiving side of the TCP-like baseline transport.
//
// Strictly in-order delivery: out-of-order segments are buffered inside the
// transport and the application sees nothing until the gap fills. This is
// the behaviour the paper faults (§5): "a lost packet stops the application
// from performing presentation conversion, and to the extent it is the
// bottleneck, it can never catch up." bench_alf_loss measures exactly that
// stall against the ALF receiver.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "netsim/net_path.h"
#include "util/event_loop.h"

namespace ngp::obs {
class MetricSink;
}  // namespace ngp::obs

namespace ngp {

struct StreamReceiverConfig {
  /// Delayed-ACK timer (0 = acknowledge every segment immediately).
  /// When set, in-order segments are acknowledged every second segment or
  /// when the timer fires, whichever is first; out-of-order and duplicate
  /// segments are still acknowledged immediately so the sender's fast
  /// retransmit keeps working (classic TCP behaviour).
  SimDuration delayed_ack = 0;
};

struct StreamReceiverStats {
  std::uint64_t segments_received = 0;
  std::uint64_t segments_corrupt = 0;   ///< checksum failures (decode drops)
  std::uint64_t segments_duplicate = 0;
  std::uint64_t segments_out_of_order = 0;  ///< arrived while a gap existed
  std::uint64_t bytes_delivered = 0;
  std::uint64_t acks_sent = 0;
  std::size_t ooo_buffered_peak = 0;    ///< max bytes parked behind a gap
};

/// Receiver half of the reliable in-order byte stream.
class StreamReceiver {
 public:
  /// `data_in` delivers DATA segments (handler registered here, cleared
  /// by the destructor); `ack_out` carries our ACKs back.
  StreamReceiver(EventLoop& loop, NetPath& data_in, NetPath& ack_out,
                 StreamReceiverConfig config = {});

  ~StreamReceiver();
  StreamReceiver(const StreamReceiver&) = delete;
  StreamReceiver& operator=(const StreamReceiver&) = delete;

  /// In-order data callback. May be invoked several times per arrival when
  /// a retransmission fills a gap and releases parked segments.
  void set_on_data(std::function<void(ConstBytes)> fn) { on_data_ = std::move(fn); }

  /// True once the FIN's predecessors have all been delivered.
  bool closed() const noexcept { return close_delivered_; }
  const StreamReceiverStats& stats() const noexcept { return stats_; }

  /// Writes the in-order-delivery counters into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  void on_frame(ConstBytes frame);
  void send_ack();
  /// Delayed-ACK gate for in-order arrivals.
  void maybe_ack();
  std::uint32_t advertised_window() const noexcept;

  EventLoop& loop_;
  NetPath& data_in_;
  NetPath& ack_out_;
  StreamReceiverConfig cfg_;
  StreamReceiverStats stats_;

  std::uint64_t rcv_nxt_ = 0;
  // Out-of-order segments keyed by start offset (trimmed to be disjoint).
  std::map<std::uint64_t, ByteBuffer> ooo_;
  std::size_t ooo_bytes_ = 0;
  bool fin_seen_ = false;
  std::uint64_t fin_offset_ = 0;  ///< stream length when FIN applies
  bool close_delivered_ = false;

  // Delayed-ACK state.
  EventId ack_timer_ = 0;
  int segments_since_ack_ = 0;

  std::function<void(ConstBytes)> on_data_;
};

}  // namespace ngp
