#include "netsim/link.h"

#include <algorithm>

#include "buf/ingress.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace ngp {

Link::Link(EventLoop& loop, LinkConfig config)
    : loop_(loop), config_(config), rng_(config.seed),
      loss_(std::make_unique<NoLoss>()),
      frame_sizes_(0.0, static_cast<double>(config.mtu) + 1.0, 16) {}

Link::~Link() {
  for (const InFlight& f : in_flight_) {
    if (f.event != 0) loop_.cancel(f.event);
  }
}

std::size_t Link::queued() const {
  while (tx_count_ > 0 && loop_.passed(tx_ends_[tx_head_])) {
    tx_head_ = (tx_head_ + 1) & (tx_ends_.size() - 1);
    --tx_count_;
  }
  return tx_count_;
}

void Link::enqueue(EventLoop::Mark tx_end) {
  if (tx_count_ == tx_ends_.size()) {
    std::vector<EventLoop::Mark> grown(std::max<std::size_t>(8, 2 * tx_count_));
    for (std::size_t i = 0; i < tx_count_; ++i) {
      grown[i] = tx_ends_[(tx_head_ + i) & (tx_ends_.size() - 1)];
    }
    tx_ends_ = std::move(grown);
    tx_head_ = 0;
  }
  tx_ends_[(tx_head_ + tx_count_++) & (tx_ends_.size() - 1)] = tx_end;
}

bool Link::send(ConstBytes frame) {
  ++stats_.frames_offered;
  if (frame.size() > config_.mtu) {
    ++stats_.dropped_oversize;
    flight_note(obs::FlightStage::kLinkDrop, frame);
    return false;
  }
  if (queued() >= config_.queue_limit) {
    ++stats_.dropped_queue;
    flight_note(obs::FlightStage::kLinkDrop, frame);
    return false;
  }
  flight_note(obs::FlightStage::kLinkEnqueue, frame);

  // Serialization: the frame occupies the transmitter starting when it is
  // free; it finishes tx_time later.
  const SimTime start = std::max(loop_.now(), tx_free_at_);
  const SimDuration tx_time = transmission_time(frame.size(), config_.bandwidth_bps);
  tx_free_at_ = start + tx_time;

  // §4's unavoidable cost: an accepted frame is one full pass over its
  // bytes (the copy onto the wire), whatever its later fate.
  transfer_cost_.charge_fused(frame.size());
  frame_sizes_.add(static_cast<double>(frame.size()));

  const bool lost = loss_->drop(rng_);
  const bool detour = !lost && rng_.bernoulli(config_.reorder_rate);
  const bool dup = !lost && rng_.bernoulli(config_.duplicate_rate);

  SimTime arrive = tx_free_at_ + config_.propagation_delay;
  if (detour) {
    arrive += static_cast<SimDuration>(
        rng_.uniform(static_cast<std::uint64_t>(config_.reorder_extra_delay)) + 1);
    ++stats_.reordered;
  }

  // The queue slot frees when serialization completes, regardless of fate.
  enqueue(loop_.mark(tx_free_at_));

  if (lost) {
    ++stats_.dropped_loss;
    flight_note(obs::FlightStage::kLinkDrop, frame);
    hold(tx_free_at_, buf::Slice{}, /*lost=*/true);  // on the wire until serialized
    return true;  // accepted; silently lost in flight
  }

  if (dup) ++stats_.duplicated;
  // Drawn only for duplicates, so the rng stream (and every seeded
  // simulation) is identical whichever pool the frames land in.
  const SimTime dup_arrive =
      dup ? arrive + static_cast<SimDuration>(rng_.uniform(kMillisecond) + 1)
          : 0;

  // The one "from the net" copy lands in a pool segment — the rx pool, or
  // the process-wide default — which the receiving stack can reference
  // instead of re-copying.
  buf::BufferPool& pool = rx_pool_ != nullptr ? *rx_pool_ : buf::default_pool();
  buf::Slice s{pool.alloc(frame.size()), 0, frame.size()};
  copy_bytes(s.mutable_bytes().data(), frame.data(), frame.size());
  if (dup) {
    buf::Slice second{pool.alloc(frame.size()), 0, frame.size()};
    copy_bytes(second.mutable_bytes().data(), s.bytes().data(), frame.size());
    hold(dup_arrive, std::move(second), /*lost=*/false);
  }
  hold(arrive, std::move(s), /*lost=*/false);
  return true;
}

void Link::hold(SimTime when, buf::Slice frame, bool lost) {
  std::uint32_t i = free_;
  if (i != kNoEntry) {
    free_ = in_flight_[i].next_free;
  } else {
    i = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  }
  InFlight& f = in_flight_[i];
  f.frame = std::move(frame);
  f.lost = lost;
  f.event = loop_.schedule_at(when, [this, i] { land(i); });
}

void Link::land(std::uint32_t i) {
  // Free the entry before delivering: the handler may send on this link.
  InFlight& f = in_flight_[i];
  buf::Slice frame = std::move(f.frame);
  const bool lost = f.lost;
  f.event = 0;
  f.next_free = free_;
  free_ = i;
  if (!lost) deliver(std::move(frame));
}

void Link::deliver(buf::Slice frame) {
  ++stats_.frames_delivered;
  stats_.bytes_delivered += frame.len;
  flight_note(obs::FlightStage::kLinkDeliver, frame.bytes());
  if (handler_) {
    // Publish the backing segment for the handler call: a consumer that
    // wants to keep the bytes takes a reference; everyone else just sees
    // the usual borrowed span. The slice (and with it our reference) dies
    // when this frame delivery returns.
    buf::IngressFrame scope(frame);
    handler_(frame.bytes());
  }
}

void Link::set_flight(obs::FlightRecorder* flight, std::string_view track_name,
                      FlightTagFn tag) {
  flight_ = flight;
  flight_tag_ = tag;
  if (flight_ != nullptr) flight_track_ = flight_->add_track(track_name);
}

void Link::flight_note(obs::FlightStage stage, ConstBytes frame) {
  if (!obs::kEnabled || flight_ == nullptr) return;
  const std::uint64_t tid = flight_tag_ != nullptr ? flight_tag_(frame) : 0;
  flight_->record(flight_track_, stage, tid, frame.size());
}

void Link::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("frames_offered", stats_.frames_offered);
  sink.counter("frames_delivered", stats_.frames_delivered);
  sink.counter("dropped_loss", stats_.dropped_loss);
  sink.counter("dropped_queue", stats_.dropped_queue);
  sink.counter("dropped_oversize", stats_.dropped_oversize);
  sink.counter("duplicated", stats_.duplicated);
  sink.counter("reordered", stats_.reordered);
  sink.counter("bytes_delivered", stats_.bytes_delivered);
  sink.gauge("queue_depth", static_cast<double>(queued()));
  sink.histogram("frame_bytes", frame_sizes_);
  obs::emit_cost(sink, "cost", transfer_cost_);
}

}  // namespace ngp
