#include "transport/stream_receiver.h"

#include <algorithm>

#include "obs/metrics.h"
#include "transport/segment.h"

namespace ngp {

StreamReceiver::StreamReceiver(EventLoop& loop, NetPath& data_in, NetPath& ack_out,
                               StreamReceiverConfig config)
    : loop_(loop), data_in_(data_in), ack_out_(ack_out), cfg_(config) {
  data_in_.set_handler([this](ConstBytes frame) { on_frame(frame); });
}

StreamReceiver::~StreamReceiver() {
  // The DATA handler and the delayed-ACK event close over `this`: left
  // behind, a frame or a loop run after teardown calls into freed memory.
  data_in_.set_handler(nullptr);
  if (ack_timer_ != 0) loop_.cancel(ack_timer_);
}

/// Advertised window ceiling; out-of-order bytes parked beyond it drop.
constexpr std::size_t kReceiveBufferLimit = 1 << 20;

std::uint32_t StreamReceiver::advertised_window() const noexcept {
  const std::size_t used = ooo_bytes_;
  const std::size_t free_bytes =
      kReceiveBufferLimit > used ? kReceiveBufferLimit - used : 0;
  return static_cast<std::uint32_t>(std::min<std::size_t>(free_bytes, UINT32_MAX));
}

void StreamReceiver::on_frame(ConstBytes frame) {
  auto seg = decode_segment(frame);
  if (!seg) {
    ++stats_.segments_corrupt;
    return;
  }
  if (seg->type != SegmentType::kData) return;
  ++stats_.segments_received;

  const std::uint64_t start = seg->seq;
  const std::uint64_t end = start + seg->payload.size();

  if (seg->fin()) {
    fin_seen_ = true;
    fin_offset_ = end;
  }

  if (end <= rcv_nxt_ && !(seg->fin() && !close_delivered_)) {
    // Entirely old data.
    ++stats_.segments_duplicate;
    send_ack();
    return;
  }

  if (start > rcv_nxt_) {
    // Gap: park the segment (classic TCP reassembly queue).
    ++stats_.segments_out_of_order;
    if (ooo_bytes_ + seg->payload.size() <= kReceiveBufferLimit &&
        !ooo_.contains(start)) {
      ooo_.emplace(start, ByteBuffer(seg->payload));
      ooo_bytes_ += seg->payload.size();
      stats_.ooo_buffered_peak = std::max(stats_.ooo_buffered_peak, ooo_bytes_);
    }
    send_ack();  // duplicate ACK -> sender's fast retransmit
    return;
  }

  // In-order (possibly overlapping) data: deliver the new part.
  if (end > rcv_nxt_) {
    const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - start);
    ConstBytes fresh = seg->payload.subspan(skip);
    rcv_nxt_ = end;
    stats_.bytes_delivered += fresh.size();
    if (on_data_ && !fresh.empty()) on_data_(fresh);
  }

  // Drain any parked segments that are now contiguous.
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= rcv_nxt_) {
    const std::uint64_t s = it->first;
    const ByteBuffer& b = it->second;
    const std::uint64_t e = s + b.size();
    if (e > rcv_nxt_) {
      const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - s);
      ConstBytes fresh = b.span().subspan(skip);
      rcv_nxt_ = e;
      stats_.bytes_delivered += fresh.size();
      if (on_data_ && !fresh.empty()) on_data_(fresh);
    }
    ooo_bytes_ -= b.size();
    it = ooo_.erase(it);
  }

  if (fin_seen_ && !close_delivered_ && rcv_nxt_ >= fin_offset_) {
    close_delivered_ = true;
    send_ack();  // the FIN's ACK should not wait on the delay timer
    return;
  }

  maybe_ack();
}

void StreamReceiver::maybe_ack() {
  if (cfg_.delayed_ack == 0) {
    send_ack();
    return;
  }
  if (++segments_since_ack_ >= 2) {
    send_ack();
    return;
  }
  if (ack_timer_ == 0) {
    ack_timer_ = loop_.schedule_after(cfg_.delayed_ack, [this] {
      ack_timer_ = 0;
      if (segments_since_ack_ > 0) send_ack();
    });
  }
}

void StreamReceiver::send_ack() {
  segments_since_ack_ = 0;
  if (ack_timer_ != 0) {
    loop_.cancel(ack_timer_);
    ack_timer_ = 0;
  }
  Segment ack;
  ack.type = SegmentType::kAck;
  // FIN consumes one virtual slot: acknowledge past it once delivered.
  ack.ack = close_delivered_ ? fin_offset_ + 1 : rcv_nxt_;
  ack.window = advertised_window();
  ByteBuffer frame = encode_segment(ack);
  ack_out_.send(frame.span());
  ++stats_.acks_sent;
}

void StreamReceiver::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("segments_received", stats_.segments_received);
  sink.counter("segments_corrupt", stats_.segments_corrupt);
  sink.counter("segments_duplicate", stats_.segments_duplicate);
  sink.counter("segments_out_of_order", stats_.segments_out_of_order);
  sink.counter("bytes_delivered", stats_.bytes_delivered);
  sink.counter("acks_sent", stats_.acks_sent);
  sink.counter("ooo_buffered_peak", stats_.ooo_buffered_peak);
  sink.gauge("ooo_buffered_bytes", static_cast<double>(ooo_bytes_));
}

void StreamReceiver::register_metrics(obs::MetricsRegistry& reg, std::string prefix) const {
  reg.add_source(std::move(prefix),
                 [this](obs::MetricSink& sink) { emit_metrics(sink); });
}

}  // namespace ngp
