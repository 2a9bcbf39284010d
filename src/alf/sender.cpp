#include "alf/sender.h"

#include <algorithm>
#include <cassert>

#include "alf/fec.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"

namespace ngp::alf {

AlfSender::AlfSender(EventLoop& loop, NetPath& data_out, NetPath& feedback_in,
                     SessionConfig config)
    : AlfSender(loop, data_out, &feedback_in, config) {}

AlfSender::AlfSender(EventLoop& loop, NetPath& data_out, NetPath* feedback_in,
                     SessionConfig config)
    : loop_(loop), out_(data_out), cfg_(config),
      next_adu_id_(std::max<std::uint32_t>(1, config.first_adu_id)),
      frag_capacity_(fragment_payload_capacity(data_out.max_frame_size())),
      frame_(DataFragment::kHeaderSize + frag_capacity_) {
  // Demux-fed senders (sessiond) share a feedback ingress: frames reach
  // them through handle_feedback() only.
  if (feedback_in != nullptr) {
    feedback_in_ = feedback_in;
    feedback_in->set_handler([this](ConstBytes frame) { on_feedback(frame); });
  }
}

AlfSender::~AlfSender() {
  // The handler this ctor installed closes over `this`: leave it behind
  // and a frame delivered after teardown calls into freed memory. Frames
  // arriving on a handlerless path drop, as on an unbound port.
  if (feedback_in_ != nullptr) feedback_in_->set_handler(nullptr);
  if (pace_timer_ != 0) loop_.cancel(pace_timer_);
  if (done_timer_ != 0) loop_.cancel(done_timer_);
  if (watchdog_timer_ != 0) loop_.cancel(watchdog_timer_);
}

void AlfSender::emit_metrics(obs::MetricSink& sink) const {
  const SenderStats& s = stats_;
  sink.counter("adus_sent", s.adus_sent);
  sink.counter("adus_retransmitted", s.adus_retransmitted);
  sink.counter("adus_recomputed", s.adus_recomputed);
  sink.counter("nacks_ignored", s.nacks_ignored);
  sink.counter("fragments_sent", s.fragments_sent);
  sink.counter("fec_parity_sent", s.fec_parity_sent);
  sink.counter("payload_bytes_sent", s.payload_bytes_sent);
  sink.counter("nacks_received", s.nacks_received);
  sink.counter("progress_received", s.progress_received);
  sink.counter("resumes_received", s.resumes_received);
  sink.counter("adus_resumed", s.adus_resumed);
  sink.counter("retransmit_buffer_bytes", s.retransmit_buffer_bytes);
  sink.counter("retransmit_buffer_peak", s.retransmit_buffer_peak);
  sink.counter("watchdog_fired", s.watchdog_fired);
  sink.counter("names_held", s.names_held);
  obs::emit_cost(sink, "cost", manip_cost_);
}

Result<std::uint32_t> AlfSender::send_adu(const AduName& name, ConstBytes payload) {
  if (finished_) return Error{ErrorCode::kClosed, "finish() already called"};
  if (Status s = admit(payload.size()); !s) return s.error();
  return stage(next_adu_id_++, {.name = name, .wire_payload = copy_in(payload)});
}

Result<std::uint32_t> AlfSender::send_adu(const AduName& name, buf::Slice payload) {
  if (finished_) return Error{ErrorCode::kClosed, "finish() already called"};
  if (Status s = admit(payload.len); !s) return s.error();
  return stage(next_adu_id_++, {.name = name, .pooled = std::move(payload)});
}

Result<std::uint32_t> AlfSender::send_record(const AduName& name,
                                             const presentation::PresentationPlan& plan,
                                             const Record& record) {
  if (finished_) return Error{ErrorCode::kClosed, "finish() already called"};
  if (failed_) return Error{ErrorCode::kClosed, "session failed (feedback watchdog)"};
  // The marshalling stores into a fresh buffer, so it IS the staging pass:
  // the buffer is prepared where it lies, with no copy after it.
  auto wire = plan.compiled
                  ? presentation::plan_encode(plan, record, &manip_cost_)
                  : encode_record_interpreted(plan.syntax, plan.schema, record,
                                              &manip_cost_);
  if (!wire) return wire.error();
  if (Status s = admit(wire->size()); !s) return s.error();
  return stage(next_adu_id_++, {.name = name, .wire_payload = std::move(*wire)});
}

Result<std::uint32_t> AlfSender::send_adu_as(std::uint32_t adu_id,
                                             const AduName& name,
                                             ConstBytes payload) {
  if (adu_id == 0 || adu_id >= cfg_.first_adu_id) {
    return Error{ErrorCode::kOutOfRange,
                 "resumed id must predate this incarnation"};
  }
  // The name book spans every id from the lowest staged up, so one stray
  // id far below first_adu_id would size it across the whole gap.
  if (cfg_.retransmit == RetransmitPolicy::kApplicationRecompute &&
      cfg_.adu_id_window > 0 && cfg_.first_adu_id - adu_id > cfg_.adu_id_window) {
    return Error{ErrorCode::kOutOfRange,
                 "resumed id more than adu_id_window below first_adu_id"};
  }
  if (store_.contains(adu_id)) {
    return Error{ErrorCode::kOutOfRange, "id already staged"};
  }
  if (Status s = admit(payload.size()); !s) return s.error();
  ++stats_.adus_resumed;
  return stage(adu_id, {.name = name, .wire_payload = copy_in(payload)});
}

Status AlfSender::admit(std::size_t len) const {
  if (failed_) return Error{ErrorCode::kClosed, "session failed (feedback watchdog)"};
  if (len == 0) return Error{ErrorCode::kOutOfRange, "empty ADU"};
  if (len > UINT32_MAX) return Error{ErrorCode::kOutOfRange, "ADU too large"};
  if (cfg_.retransmit == RetransmitPolicy::kTransportBuffered &&
      stats_.retransmit_buffer_bytes + len > cfg_.retransmit_buffer_limit) {
    return Error{ErrorCode::kLimitExceeded, "retransmit buffer full"};
  }
  return Status::ok();
}

ByteBuffer AlfSender::copy_in(ConstBytes payload) {
  ByteBuffer wire(payload.size());
  simd::kernels().copy(payload, wire.span());
  manip_cost_.charge_pass(payload.size(), /*stores=*/true);  // staging copy
  return wire;
}

void AlfSender::prepare(std::uint32_t adu_id, BufferedAdu& b) {
  // The sender pipeline is the conventional layered engineering (the
  // receive side is where ILP applies): the cost ledger therefore charges
  // one full pass per manipulation below. Neither moves the wire bytes:
  // the checksum only loads them and encryption ciphers them in place.
  const MutableBytes wire = b.mutable_wire_bytes();
  manip_cost_.charge_operation(wire.size());

  // The per-ADU checksum covers the plaintext: the ADU is the unit of error
  // detection (§5), independent of how it is fragmented or ciphered.
  b.checksum = compute_checksum(cfg_.checksum, wire);
  manip_cost_.charge_pass(wire.size(), /*stores=*/false);
  b.flags = 0;
  if (cfg_.encrypt) {
    // Per-ADU nonce: ADU id into the nonce tail; the ADU is the encryption
    // synchronization unit, so any complete ADU decrypts standalone.
    ChaChaKey k = cfg_.key;
    store_u32_be(k.nonce.data() + 8, adu_id);
    simd::kernels().chacha20_xor(k, /*counter=*/0, wire);
    manip_cost_.charge_pass(wire.size(), /*stores=*/true);
    b.flags |= kFlagEncrypted;
  }
}

std::uint32_t AlfSender::stage(std::uint32_t adu_id, BufferedAdu b) {
  // Only a recompute reads a name once the store entry is gone.
  if (cfg_.retransmit == RetransmitPolicy::kApplicationRecompute) {
    names_.put(adu_id, b.name);
    stats_.names_held = names_.size();
  }
  prepare(adu_id, b);
  const std::size_t n = b.wire_bytes().size();
  store_.emplace(adu_id, std::move(b));
  if (cfg_.retransmit == RetransmitPolicy::kTransportBuffered) {
    stats_.retransmit_buffer_bytes += n;
    stats_.retransmit_buffer_peak =
        std::max(stats_.retransmit_buffer_peak, stats_.retransmit_buffer_bytes);
  }

  ++stats_.adus_sent;
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kStaged,
                     obs::flight_trace_id(cfg_.session_id, adu_id), n);
  enqueue_adu_fragments(adu_id, /*retransmit=*/false);
  pump();
  return adu_id;
}

void AlfSender::set_flight(obs::FlightRecorder* flight) {
  flight_ = flight;
  if (flight_ != nullptr) flight_track_ = flight_->add_track("alf.tx");
}

void AlfSender::enqueue_adu_fragments(std::uint32_t adu_id, bool retransmit) {
  auto it = store_.find(adu_id);
  if (it == store_.end()) return;
  BufferedAdu& b = it->second;
  const std::size_t len = b.wire_bytes().size();

  // ADU-level FEC (footnote 10): one parity fragment per fec_k data
  // fragments, computed over the wire payload (post-encryption, so the
  // receiver can reconstruct before decrypting).
  if (cfg_.fec_k > 0 && b.parity_blocks.empty()) {
    for (std::size_t start = 0; start < len;
         start += std::size_t{cfg_.fec_k} * frag_capacity_) {
      const FecGroup group{start, cfg_.fec_k, frag_capacity_, len};
      b.parity_blocks.push_back(compute_parity(b.wire_bytes(), group));
    }
  }

  const std::size_t data_frags = (len + frag_capacity_ - 1) / frag_capacity_;
  const std::size_t parity_frags = cfg_.fec_k > 0 ? b.parity_blocks.size() : 0;

  auto data_fragment = [&](std::size_t i) {
    const std::size_t off = i * frag_capacity_;
    const auto frag_len =
        static_cast<std::uint16_t>(std::min(frag_capacity_, len - off));
    return PendingFragment{adu_id, static_cast<std::uint32_t>(off), frag_len,
                           retransmit, /*is_parity=*/false, 0};
  };
  auto parity_fragment = [&](std::size_t g) {
    const auto start =
        static_cast<std::uint32_t>(g * std::size_t{cfg_.fec_k} * frag_capacity_);
    return PendingFragment{adu_id, start,
                           static_cast<std::uint16_t>(b.parity_blocks[g].size()),
                           retransmit, /*is_parity=*/true, static_cast<std::uint32_t>(g)};
  };

  if (retransmit) {
    // Recovery jumps the backlog: the receiver is stalled on exactly these
    // bytes, while the queued tail is data nobody is waiting for yet. The
    // batch is emitted back-to-front through push_front so it lands at the
    // head in order — one O(1) deque op per fragment, no staging container,
    // no head-relinking of the resident backlog.
    for (std::size_t g = parity_frags; g-- > 0;) queue_.push_front(parity_fragment(g));
    for (std::size_t i = data_frags; i-- > 0;) queue_.push_front(data_fragment(i));
  } else {
    for (std::size_t i = 0; i < data_frags; ++i) queue_.push_back(data_fragment(i));
    for (std::size_t g = 0; g < parity_frags; ++g) queue_.push_back(parity_fragment(g));
  }
  it->second.queued_fragments += data_frags + parity_frags;
}

void AlfSender::pump() {
  if (failed_) return;
  // Paced transmission: at most one fragment per pacing interval; at line
  // rate (pace_bps == 0) drain the queue immediately — the link's own
  // serializer then provides the spacing.
  while (!queue_.empty()) {
    if (cfg_.pace_bps > 0 && loop_.now() < next_send_at_) {
      if (!pace_timer_armed_) {
        pace_timer_armed_ = true;
        pace_timer_ = loop_.schedule_at(next_send_at_, [this] {
          pace_timer_armed_ = false;
          pace_timer_ = 0;
          pump();
        });
      }
      return;
    }
    PendingFragment pf = queue_.front();
    queue_.pop_front();
    send_fragment(pf);
    if (cfg_.pace_bps > 0) {
      const SimDuration gap = transmission_time(
          pf.frag_len + DataFragment::kHeaderSize, cfg_.pace_bps);
      next_send_at_ = std::max(loop_.now(), next_send_at_) + gap;
    }
  }

  // Everything drained: emit DONE (with a bounded retry schedule — DONE is
  // unreliable and the receiver's progress reports stop once it is idle,
  // so a lost DONE on a quiet session needs sender-side initiative).
  if (finished_ && !done_sent_ && queue_.empty()) {
    done_sent_ = true;
    send_done();
  }
}

void AlfSender::send_done() {
  if (peer_complete_ || failed_) return;
  DoneMessage d;
  d.session = cfg_.session_id;
  d.total_adus = next_adu_id_ - 1;
  ByteBuffer frame = encode_done(d);
  out_.send(frame.span());
  if (done_timer_ != 0) return;  // a retry is already scheduled
  if (done_retries_left_-- > 0) {
    // Exponential spacing: 100ms, 200ms, 400ms... bounded by the retry
    // budget, so a vanished peer cannot keep the timer wheel busy forever.
    const SimDuration wait =
        100 * kMillisecond * (std::int64_t{1} << std::min(8 - done_retries_left_ - 1, 6));
    done_timer_ = loop_.schedule_after(wait, [this] {
      done_timer_ = 0;
      if (!peer_complete_ && queue_.empty()) send_done();
    });
  }
}

void AlfSender::send_fragment(const PendingFragment& pf) {
  auto it = store_.find(pf.adu_id);
  if (it == store_.end()) return;  // released while queued
  BufferedAdu& b = it->second;

  DataFragment f;
  f.session = cfg_.session_id;
  f.epoch = cfg_.epoch;
  f.adu_id = pf.adu_id;
  f.name = b.name;
  f.syntax = cfg_.syntax;
  f.flags = b.flags;
  f.checksum_kind = cfg_.checksum;
  f.fec_k = cfg_.fec_k;
  f.adu_len = static_cast<std::uint32_t>(b.wire_bytes().size());
  f.frag_off = pf.frag_off;
  f.adu_checksum = b.checksum;
  if (pf.is_parity) {
    f.flags |= kFlagFecParity;
    f.payload = b.parity_blocks.at(pf.parity_index).span();
  } else {
    f.payload = b.wire_bytes().subspan(pf.frag_off, pf.frag_len);
  }

  // A path that called back into the sender from inside send() would have
  // the next fragment overwrite the frame it is still reading. Debug
  // builds check that it never does.
  assert(!frame_lent_ && "send_fragment re-entered while its frame is lent out");
  const std::size_t len = encode_fragment_into(f, frame_.span());
#ifndef NDEBUG
  frame_lent_ = true;
#endif
  out_.send(frame_.subspan(0, len));
#ifndef NDEBUG
  frame_lent_ = false;
#endif
  ++stats_.fragments_sent;
  if (pf.is_parity) ++stats_.fec_parity_sent;
  stats_.payload_bytes_sent += pf.frag_len;
  obs::flight_record(flight_, flight_track_,
                     pf.is_retransmit ? obs::FlightStage::kRetransmitTx
                                      : obs::FlightStage::kFragTx,
                     obs::flight_trace_id(cfg_.session_id, pf.adu_id),
                     pf.frag_len);

  if (b.queued_fragments > 0) --b.queued_fragments;
  if (b.queued_fragments == 0 &&
      cfg_.retransmit != RetransmitPolicy::kTransportBuffered) {
    // Nothing obliges the transport to keep a copy: the application either
    // recomputes on demand or accepts the loss.
    store_.erase(it);
  }
}

void AlfSender::finish() {
  if (failed_) return;
  finished_ = true;
  pump();
  // From here on the sender is waiting on the receiver: NACKs to serve,
  // then the DONE-ack. A dead feedback channel would leave it (and its
  // retransmit buffers) waiting forever — the watchdog bounds that wait.
  if (cfg_.stall_timeout > 0 && !watchdog_armed_ && !peer_complete_) {
    watchdog_armed_ = true;
    last_feedback_at_ = loop_.now();
    watchdog_timer_ =
        loop_.schedule_after(cfg_.stall_timeout, [this] { watchdog_tick(); });
  }
}

void AlfSender::watchdog_tick() {
  watchdog_timer_ = 0;
  if (peer_complete_ || failed_) {
    watchdog_armed_ = false;
    return;
  }
  const SimDuration idle = loop_.now() - last_feedback_at_;
  if (idle >= cfg_.stall_timeout) {
    watchdog_armed_ = false;
    fail_session();
    return;
  }
  watchdog_timer_ = loop_.schedule_after(cfg_.stall_timeout - idle,
                                         [this] { watchdog_tick(); });
}

void AlfSender::fail_session() {
  if (failed_) return;  // terminal failure is a one-shot verdict
  failed_ = true;
  ++stats_.watchdog_fired;
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kSessionFail,
                     /*trace_id=*/0, /*arg=*/cfg_.session_id);
  queue_.clear();
  store_.clear();
  names_.clear();
  stats_.names_held = 0;
  stats_.retransmit_buffer_bytes = 0;
  if (done_timer_ != 0) {
    loop_.cancel(done_timer_);
    done_timer_ = 0;
  }
  if (pace_timer_ != 0) {
    loop_.cancel(pace_timer_);
    pace_timer_ = 0;
    pace_timer_armed_ = false;
  }
  if (watchdog_timer_ != 0) {
    loop_.cancel(watchdog_timer_);
    watchdog_timer_ = 0;
    watchdog_armed_ = false;
  }
  if (on_session_failed_) on_session_failed_();
}

void AlfSender::NameBook::put(std::uint32_t adu_id, const AduName& name) {
  if (slots_.empty()) {
    base_ = adu_id;
  } else if (adu_id < base_) {
    // A resumed id below the book: prepend at least as many slots as it
    // holds (never below id 0), so descending ids double it like the tail.
    const std::size_t grow = std::min<std::size_t>(
        base_, std::max<std::size_t>(base_ - adu_id, slots_.size()));
    slots_.insert(slots_.begin(), grow, Slot{});
    base_ -= static_cast<std::uint32_t>(grow);
  }
  const std::size_t i = adu_id - base_;
  if (i >= slots_.size()) slots_.resize(i + 1);
  Slot& s = slots_[i];
  if (!s.held) ++held_;
  s = {name, true};
}

const AduName* AlfSender::NameBook::find(std::uint32_t adu_id) const noexcept {
  if (adu_id < base_ || adu_id - base_ >= slots_.size()) return nullptr;
  const Slot& s = slots_[adu_id - base_];
  return s.held ? &s.name : nullptr;
}

void AlfSender::NameBook::clear() noexcept {
  slots_ = {};
  base_ = 0;
  held_ = 0;
}

void AlfSender::release_adu(std::uint32_t adu_id) {
  auto it = store_.find(adu_id);
  if (it == store_.end()) return;
  if (it->second.queued_fragments > 0) return;  // still being transmitted
  if (cfg_.retransmit == RetransmitPolicy::kTransportBuffered) {
    const std::size_t sz = it->second.wire_bytes().size();
    stats_.retransmit_buffer_bytes -= std::min(stats_.retransmit_buffer_bytes, sz);
  }
  store_.erase(it);
}

void AlfSender::on_feedback(ConstBytes frame) {
  if (failed_) return;
  auto msg = decode_message(frame);
  if (!msg) return;
  if (msg->type == MessageType::kNack) {
    if (msg->nack.session != cfg_.session_id) return;
    last_feedback_at_ = loop_.now();
    ++stats_.nacks_received;
    handle_nack(msg->nack);
  } else if (msg->type == MessageType::kResume) {
    if (msg->resume.session != cfg_.session_id) return;
    last_feedback_at_ = loop_.now();
    ++stats_.resumes_received;
    if (on_resume_) on_resume_(msg->resume);
  } else if (msg->type == MessageType::kProgress) {
    if (msg->progress.session != cfg_.session_id) return;
    last_feedback_at_ = loop_.now();
    ++stats_.progress_received;
    // Out-of-band rate adaptation: if the receiver reports a drain rate
    // below our pacing rate, slow to it (plus headroom); never stall the
    // manipulation pipeline waiting for feedback.
    const double reported = static_cast<double>(msg->progress.consume_rate_kbps) * 1000.0;
    if (reported > 0 && cfg_.pace_bps > 0 && reported < cfg_.pace_bps) {
      cfg_.pace_bps = std::max(reported * 1.1, 1000.0);
    }
    // Only the receiver's explicit completion claim retires the DONE
    // machinery; any other PROGRESS after we finished means the receiver
    // is still waiting (possibly for a lost DONE) — resend it.
    if (msg->progress.session_complete && done_sent_) {
      peer_complete_ = true;
      if (done_timer_ != 0) {
        loop_.cancel(done_timer_);
        done_timer_ = 0;
      }
      // A retired session must not hold the event loop open.
      if (watchdog_timer_ != 0) {
        loop_.cancel(watchdog_timer_);
        watchdog_timer_ = 0;
        watchdog_armed_ = false;
      }
    } else if (done_sent_ && queue_.empty()) {
      send_done();
    }
  }
}

void AlfSender::handle_nack(const NackMessage& m) {
  for (std::uint32_t adu_id : m.adu_ids) {
    switch (cfg_.retransmit) {
      case RetransmitPolicy::kTransportBuffered: {
        auto it = store_.find(adu_id);
        if (it == store_.end()) {
          ++stats_.nacks_ignored;  // already released
          break;
        }
        if (it->second.queued_fragments > 0) {
          ++stats_.nacks_ignored;  // retransmission already in the queue
          break;
        }
        ++stats_.adus_retransmitted;
        enqueue_adu_fragments(adu_id, /*retransmit=*/true);
        break;
      }
      case RetransmitPolicy::kApplicationRecompute: {
        const AduName* held = names_.find(adu_id);
        if (held == nullptr || !recompute_) {
          ++stats_.nacks_ignored;
          break;
        }
        // A copy: the callback may stage ADUs, and the book may grow.
        const AduName name = *held;
        if (auto it = store_.find(adu_id);
            it != store_.end() && it->second.queued_fragments > 0) {
          ++stats_.nacks_ignored;  // recomputed copy already queued
          break;
        }
        auto payload = recompute_(adu_id, name);
        if (!payload) {
          ++stats_.nacks_ignored;  // app declined (e.g. data superseded)
          break;
        }
        // Re-prepare under the same id so the receiver can reconcile. The
        // callback handed its buffer over, so it is prepared in place.
        BufferedAdu b{.name = name, .wire_payload = std::move(*payload)};
        prepare(adu_id, b);
        store_[adu_id] = std::move(b);
        ++stats_.adus_recomputed;
        ++stats_.adus_retransmitted;
        enqueue_adu_fragments(adu_id, /*retransmit=*/true);
        break;
      }
      case RetransmitPolicy::kNone:
        ++stats_.nacks_ignored;
        break;
    }
  }
  pump();
}

}  // namespace ngp::alf
