// link.h — simulated unidirectional link.
//
// Models the substrate the paper's transports run over: finite bandwidth
// (serialization delay), propagation delay, a drop-tail queue, and the
// packet-switched failure modes §3 catalogues — loss, reordering,
// duplication. Deterministic given the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buf/chain.h"
#include "netsim/loss_model.h"
#include "obs/cost.h"
#include "util/bytes.h"
#include "util/event_loop.h"
#include "util/stats.h"
#include "util/rng.h"

namespace ngp::obs {
class MetricSink;
class FlightRecorder;
enum class FlightStage : std::uint8_t;
}  // namespace ngp::obs

namespace ngp {

/// Receives frames delivered by a link.
using FrameHandler = std::function<void(ConstBytes)>;

/// Static link parameters.
struct LinkConfig {
  double bandwidth_bps = 100e6;              ///< serialization rate
  SimDuration propagation_delay = kMillisecond;
  std::size_t mtu = 1500;                    ///< max frame size accepted
  std::size_t queue_limit = 128;             ///< frames queued at the sender
  double reorder_rate = 0.0;                 ///< P(frame takes a detour)
  SimDuration reorder_extra_delay = kMillisecond;  ///< detour length
  double duplicate_rate = 0.0;               ///< P(frame delivered twice)
  std::uint64_t seed = 1;
};

/// Per-link counters (exposed for tests and bench reports).
struct LinkStats {
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_queue = 0;
  std::uint64_t dropped_oversize = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t bytes_delivered = 0;
};

/// Unidirectional point-to-point link.
///
/// send() enqueues a frame; the simulator delivers it to the registered
/// handler after serialization + propagation (+ reorder detour), unless the
/// loss model or queue drops it. Destroying a link cancels the frames it
/// still has in flight.
///
/// Cost: each delivered copy of a frame (a duplicate is a second copy) is
/// one loop event, and each lost frame one event at its serialization end,
/// so `loop.pending()` is non-zero exactly while a frame is on the wire.
/// A copy waits in the link's in-flight table, and its event captures
/// only the link and the table entry, so once the table has grown to the
/// traffic a frame allocates nothing beyond its pool segment. The queue
/// schedules nothing: its depth is the number of accepted frames whose
/// serialization end the loop has not yet passed (EventLoop::mark and
/// passed()). At an instant where a serialization end ties with running
/// events, that counts the frame as gone only for events scheduled after
/// the frame was sent, as a queue-slot event scheduled in send() would
/// have.
class Link {
 public:
  Link(EventLoop& loop, LinkConfig config);
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Registers the delivery callback (the receiving host's rx interrupt).
  void set_handler(FrameHandler handler) { handler_ = std::move(handler); }

  /// Chooses the pool received frames land in. Every accepted frame is
  /// copied ONCE into a pool segment at send time (the paper's unavoidable
  /// "from the net" pass), and delivery publishes the segment via
  /// buf::IngressFrame for the handler's duration, so a downstream
  /// consumer can take a reference instead of copying. nullptr (the
  /// default) selects buf::default_pool(). The pool must outlive the
  /// link's in-flight frames.
  void set_rx_pool(buf::BufferPool* pool) { rx_pool_ = pool; }

  /// Replaces the default Bernoulli(0) loss process.
  void set_loss_model(std::unique_ptr<LossModel> model) { loss_ = std::move(model); }

  /// Convenience: independent loss with probability `p`.
  void set_loss_rate(double p) { loss_ = std::make_unique<BernoulliLoss>(p); }

  /// Offers a frame. Returns false if rejected immediately (oversize or
  /// full queue); loss in flight is silent, as on a real network.
  bool send(ConstBytes frame);

  const LinkStats& stats() const noexcept { return stats_; }
  const LinkConfig& config() const noexcept { return config_; }
  EventLoop& loop() noexcept { return loop_; }

  /// §4 "moving to/from the net" ledger: every accepted frame costs one
  /// full memory pass (the copy onto the wire).
  const obs::CostAccount& transfer_cost() const noexcept { return transfer_cost_; }
  /// Writes all counters (stats + cost + size histogram) into one source.
  void emit_metrics(obs::MetricSink& sink) const;

  /// Labels a frame with its flow-scoped trace id; 0 = untraced. Injected
  /// from the protocol above (e.g. alf::peek_flight_tag) so the link never
  /// learns a wire format — same layering rule as fault-plan adversaries.
  using FlightTagFn = std::uint64_t (*)(ConstBytes);

  /// Attaches the per-ADU flight recorder: enqueue / drop / deliver events
  /// are recorded on a new track named `track_name`, labelled via `tag`.
  void set_flight(obs::FlightRecorder* flight, std::string_view track_name,
                  FlightTagFn tag);

 private:
  /// A frame copy in flight, or a lost frame holding its place on the
  /// wire until its serialization end.
  struct InFlight {
    buf::Slice frame;
    EventId event = 0;  ///< 0 while the entry is free
    std::uint32_t next_free = 0;
    bool lost = false;
  };
  static constexpr std::uint32_t kNoEntry = 0xFFFF'FFFFu;

  /// Keeps `frame` in the in-flight table until `when`, then land()s it.
  void hold(SimTime when, buf::Slice frame, bool lost);
  /// The event of entry `i`: frees the entry and delivers its frame
  /// unless it was lost.
  void land(std::uint32_t i);
  void deliver(buf::Slice frame);
  /// Frames accepted whose serialization end the loop has not passed;
  /// forgets the ends it has.
  std::size_t queued() const;
  /// Counts a frame in the queue until the loop passes `tx_end`.
  void enqueue(EventLoop::Mark tx_end);
  void flight_note(obs::FlightStage stage, ConstBytes frame);

  EventLoop& loop_;
  LinkConfig config_;
  Rng rng_;
  std::unique_ptr<LossModel> loss_;
  FrameHandler handler_;
  buf::BufferPool* rx_pool_ = nullptr;  ///< null = buf::default_pool()
  LinkStats stats_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_track_ = 0;
  FlightTagFn flight_tag_ = nullptr;
  obs::CostAccount transfer_cost_;
  Histogram frame_sizes_;     ///< accepted-frame sizes (range set by the mtu)
  SimTime tx_free_at_ = 0;    ///< when the serializer becomes idle
  /// Serialization ends of the queued frames, oldest first: a ring whose
  /// capacity is a power of two.
  std::vector<EventLoop::Mark> tx_ends_;
  mutable std::size_t tx_head_ = 0;
  mutable std::size_t tx_count_ = 0;
  std::vector<InFlight> in_flight_;  ///< entries reused through a free list
  std::uint32_t free_ = kNoEntry;
};

/// A bidirectional channel: two independent links with shared defaults.
struct DuplexChannel {
  DuplexChannel(EventLoop& loop, const LinkConfig& forward_cfg,
                const LinkConfig& reverse_cfg)
      : forward(loop, forward_cfg), reverse(loop, reverse_cfg) {}

  /// Symmetric channel.
  DuplexChannel(EventLoop& loop, const LinkConfig& cfg) : DuplexChannel(loop, cfg, cfg) {}

  Link forward;  ///< a -> b
  Link reverse;  ///< b -> a
};

}  // namespace ngp
