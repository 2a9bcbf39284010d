#include "transport/stream_sender.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "transport/segment.h"

namespace ngp {

constexpr std::size_t kMss = 1400;  ///< max payload per segment, before the path's clamp
constexpr std::uint32_t kInitialCwndSegments = 4;  ///< initial window, in segments
constexpr SimDuration kInitialRto = 200 * kMillisecond;
constexpr SimDuration kMinRto = 10 * kMillisecond;
constexpr SimDuration kMaxRto = 10 * kSecond;

StreamSender::StreamSender(EventLoop& loop, NetPath& data_out, NetPath& ack_in,
                           StreamSenderConfig config)
    : loop_(loop), out_(data_out), ack_in_(ack_in), cfg_(config),
      mss_(std::min(kMss, out_.max_frame_size() - Segment::kHeaderSize)),
      rto_(kInitialRto) {
  cwnd_ = static_cast<double>(kInitialCwndSegments) * static_cast<double>(mss_);
  ssthresh_ = 64.0 * static_cast<double>(mss_);
  ack_in_.set_handler([this](ConstBytes frame) { on_frame(frame); });
}

StreamSender::~StreamSender() {
  // The ACK handler and the RTO event close over `this`: left behind, a
  // frame or a loop run after teardown calls into freed memory.
  ack_in_.set_handler(nullptr);
  if (rto_timer_ != 0) loop_.cancel(rto_timer_);
}

std::size_t StreamSender::send(ConstBytes data) {
  if (fin_queued_) return 0;  // the stream is closed; no bytes after FIN
  const std::size_t room =
      cfg_.send_buffer_limit > buf_.size() ? cfg_.send_buffer_limit - buf_.size() : 0;
  const std::size_t n = std::min(room, data.size());
  buf_.insert(buf_.end(), data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n));
  write_next_ += n;
  try_send();
  return n;
}

void StreamSender::close() {
  fin_queued_ = true;
  try_send();
}

bool StreamSender::finished() const noexcept {
  return fin_queued_ && snd_una_ >= write_next_ && fin_acked_;
}

ConstBytes StreamSender::buffered(std::uint64_t seq, std::size_t len) const {
  // deque is contiguous only per block; copy into the member scratch via
  // iterators. To keep the datapath simple we expose through that buffer —
  // callers must consume before the next buffered() call. (All do.)
  read_scratch_.resize(len);
  const auto start = buf_.begin() + static_cast<std::ptrdiff_t>(seq - buf_base_);
  std::copy(start, start + static_cast<std::ptrdiff_t>(len), read_scratch_.begin());
  return {read_scratch_.data(), read_scratch_.size()};
}

void StreamSender::transmit(std::uint64_t seq, std::size_t len, bool retransmission) {
  Segment s;
  s.type = SegmentType::kData;
  s.seq = seq;
  s.window = 0;
  if (len > 0) s.payload = buffered(seq, len);
  const bool is_last = fin_queued_ && seq + len >= write_next_;
  if (is_last) s.flags |= kFlagFin;

  ByteBuffer frame = encode_segment(s);
  out_.send(frame.span());

  ++stats_.segments_sent;
  stats_.bytes_sent += len;
  if (retransmission) {
    ++stats_.retransmits;
  } else if (sample_seq_ == 0 && len > 0) {
    // Karn: only time segments sent exactly once.
    sample_seq_ = seq + len;
    sample_sent_at_ = loop_.now();
  }
}

void StreamSender::try_send() {
  const double wnd = std::min(cwnd_, static_cast<double>(peer_window_));
  const auto window_end = snd_una_ + static_cast<std::uint64_t>(std::max(wnd, 0.0));

  bool sent_any = false;
  while (snd_nxt_ < write_next_ && snd_nxt_ < window_end) {
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>({mss_, write_next_ - snd_nxt_, window_end - snd_nxt_}));
    if (len == 0) break;
    transmit(snd_nxt_, len, /*retransmission=*/false);
    snd_nxt_ += len;
    sent_any = true;
  }

  // A bare FIN (no data left to send) still needs a segment.
  if (fin_queued_ && snd_nxt_ >= write_next_ && !fin_acked_ && write_next_ == snd_una_ &&
      !sent_any) {
    transmit(write_next_, 0, /*retransmission=*/false);
    sent_any = true;
  }

  if (snd_una_ < snd_nxt_ || (fin_queued_ && !fin_acked_)) arm_rto();
}

void StreamSender::arm_rto() {
  if (rto_timer_ != 0) return;  // already armed
  rto_timer_ = loop_.schedule_after(rto_, [this] {
    rto_timer_ = 0;
    on_rto();
  });
}

void StreamSender::on_rto() {
  if (finished()) return;
  if (snd_una_ >= snd_nxt_ && !(fin_queued_ && !fin_acked_)) return;

  ++stats_.rto_fires;
  // Back off and collapse the window (TCP Tahoe-style on timeout).
  rto_ = std::min(rto_ * 2, kMaxRto);
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * static_cast<double>(mss_));
  cwnd_ = static_cast<double>(mss_);
  sample_seq_ = 0;  // Karn: invalidate the timing sample

  // Retransmit the first unacked segment.
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(mss_, write_next_ - snd_una_));
  transmit(snd_una_, len, /*retransmission=*/true);
  arm_rto();
}

void StreamSender::on_frame(ConstBytes frame) {
  auto seg = decode_segment(frame);
  if (!seg || seg->type != SegmentType::kAck) return;
  on_ack(seg->ack, seg->window);
}

void StreamSender::on_ack(std::uint64_t ack, std::uint32_t window) {
  ++stats_.acks_received;
  peer_window_ = window;

  // FIN consumes one virtual sequence slot: ack == write_next_+1 acks FIN.
  const std::uint64_t fin_ack = write_next_ + 1;
  if (fin_queued_ && ack >= fin_ack) {
    fin_acked_ = true;
    ack = write_next_;
  }

  if (ack > snd_una_) {
    // New data acked.
    const double acked_bytes = static_cast<double>(ack - snd_una_);
    snd_una_ = ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    dup_ack_count_ = 0;
    last_ack_ = ack;

    // RTT sample (Karn-filtered).
    if (sample_seq_ != 0 && ack >= sample_seq_) {
      const double rtt = to_seconds(loop_.now() - sample_sent_at_);
      if (!have_srtt_) {
        srtt_ = rtt;
        rttvar_ = rtt / 2;
        have_srtt_ = true;
      } else {
        rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt);
        srtt_ = 0.875 * srtt_ + 0.125 * rtt;
      }
      rto_ = std::clamp(from_seconds(srtt_ + 4 * rttvar_), kMinRto, kMaxRto);
      sample_seq_ = 0;
    }

    if (cwnd_ < ssthresh_) {
      cwnd_ += acked_bytes;  // slow start
    } else {
      cwnd_ += static_cast<double>(mss_) * static_cast<double>(mss_) /
               std::max(cwnd_, 1.0);  // congestion avoidance
    }

    // Reset the retransmission timer for remaining in-flight data.
    if (rto_timer_ != 0) {
      loop_.cancel(rto_timer_);
      rto_timer_ = 0;
    }

    // Trim acked prefix from the buffer.
    const std::uint64_t trim_to = std::min(snd_una_, buf_base_ + buf_.size());
    if (trim_to > buf_base_) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(trim_to - buf_base_));
      buf_base_ = trim_to;
    }

    try_send();
    return;
  }

  if (ack == last_ack_ && ack == snd_una_ && snd_nxt_ > snd_una_) {
    ++stats_.dup_acks;
    ++dup_ack_count_;
    if (dup_ack_count_ == 3) {
      ++stats_.fast_retransmits;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * static_cast<double>(mss_));
      cwnd_ = ssthresh_;
      sample_seq_ = 0;
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(mss_, write_next_ - snd_una_));
      transmit(snd_una_, len, /*retransmission=*/true);
    }
  }
  last_ack_ = ack;
}

void StreamSender::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("segments_sent", stats_.segments_sent);
  sink.counter("bytes_sent", stats_.bytes_sent);
  sink.counter("retransmits", stats_.retransmits);
  sink.counter("rto_fires", stats_.rto_fires);
  sink.counter("fast_retransmits", stats_.fast_retransmits);
  sink.counter("dup_acks", stats_.dup_acks);
  sink.counter("acks_received", stats_.acks_received);
  sink.gauge("cwnd_bytes", cwnd_);
  sink.gauge("rto_seconds", to_seconds(rto_));
  sink.gauge("unacked_bytes", static_cast<double>(snd_nxt_ - snd_una_));
}

void StreamSender::register_metrics(obs::MetricsRegistry& reg, std::string prefix) const {
  reg.add_source(std::move(prefix),
                 [this](obs::MetricSink& sink) { emit_metrics(sink); });
}

}  // namespace ngp
