#include "sessiond/sessiond.h"

#include <algorithm>

#include "alf/wire.h"
#include "obs/metrics.h"

namespace ngp::sessiond {

// ---- Dispatcher ------------------------------------------------------------

std::uint32_t Dispatcher::bind(NetPath& ingress) {
  const std::uint32_t peer =
      next_peer_.fetch_add(1, std::memory_order_relaxed);
  bind(ingress, peer);
  return peer;
}

Dispatcher::~Dispatcher() {
  for (NetPath* path : bound_) path->set_handler(nullptr);
}

void Dispatcher::bind(NetPath& ingress, std::uint32_t peer) {
  if (std::find(bound_.begin(), bound_.end(), &ingress) == bound_.end()) {
    bound_.push_back(&ingress);
  }
  ingress.set_handler(
      [this, peer](ConstBytes frame) { dispatch(peer, frame); });
}

void Dispatcher::dispatch(std::uint32_t peer, ConstBytes frame) {
  frames_dispatched_.fetch_add(1, std::memory_order_relaxed);
  const auto sid = alf::peek_flow_id(frame);
  if (!sid) {
    frames_unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const FlowId flow{peer, *sid};
  switch (table_.route(flow, loop_.now(), frame, &factory_)) {
    case SessionTable::RouteOutcome::kRouted:
      frames_routed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionTable::RouteOutcome::kCreated:
      sessions_created_.fetch_add(1, std::memory_order_relaxed);
      obs::flight_record(flight_, flight_track_,
                         obs::FlightStage::kSessionCreate,
                         obs::flight_trace_id(flow.session_id, 0),
                         table_.size());
      break;
    case SessionTable::RouteOutcome::kNoSession:
      frames_unroutable_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionTable::RouteOutcome::kRejected:
      creates_rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

Dispatcher::Stats Dispatcher::stats() const {
  Stats s;
  s.frames_dispatched = frames_dispatched_.load(std::memory_order_relaxed);
  s.frames_routed = frames_routed_.load(std::memory_order_relaxed);
  s.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  s.frames_unroutable = frames_unroutable_.load(std::memory_order_relaxed);
  s.creates_rejected = creates_rejected_.load(std::memory_order_relaxed);
  return s;
}

void Dispatcher::emit_metrics(obs::MetricSink& sink) const {
  const Stats s = stats();
  sink.counter("frames_dispatched", s.frames_dispatched);
  sink.counter("frames_routed", s.frames_routed);
  sink.counter("sessions_created", s.sessions_created);
  sink.counter("frames_unroutable", s.frames_unroutable);
  sink.counter("creates_rejected", s.creates_rejected);
}

// ---- AlfSession ------------------------------------------------------------

void AlfSession::on_frame(ConstBytes frame) {
  // A shared ingress can carry both directions of an association, so the
  // demux is by message direction: data-plane frames feed the receiver,
  // feedback-plane frames feed the sender. Probes are path-level traffic
  // either endpoint may see and both ignore — hand them to whichever
  // endpoint exists.
  const auto type = alf::peek_message_type(frame);
  if (!type) return;
  switch (*type) {
    case alf::MessageType::kData:
    case alf::MessageType::kDone:
      if (receiver_ != nullptr || sup_ != nullptr) receiver().handle_frame(frame);
      break;
    case alf::MessageType::kNack:
    case alf::MessageType::kProgress:
    case alf::MessageType::kResume:
      if (sender_ != nullptr || sup_ != nullptr) sender().handle_feedback(frame);
      break;
    case alf::MessageType::kProbe:
      if (receiver_ != nullptr || sup_ != nullptr) receiver().handle_frame(frame);
      else if (sender_ != nullptr) sender().handle_feedback(frame);
      break;
  }
}

Result<std::uint32_t> AlfSession::send_adu(const AduName& name,
                                           ConstBytes payload) {
  if (sup_) return sup_->send_adu(name, payload);
  return sender_->send_adu(name, payload);
}

void AlfSession::finish() {
  if (sup_) sup_->finish();
  else sender_->finish();
}

void AlfSession::set_on_adu(std::function<void(Adu&&)> fn) {
  if (sup_) sup_->set_on_adu(std::move(fn));
  else receiver_->set_on_adu(std::move(fn));
}

void AlfSession::set_on_adu_chain(std::function<void(AduChain&&)> fn) {
  if (sup_) sup_->set_on_adu_chain(std::move(fn));
  else receiver_->set_on_adu_chain(std::move(fn));
}

void AlfSession::set_on_adu_lost(
    std::function<void(std::uint32_t, const AduName&, bool)> fn) {
  if (sup_) sup_->set_on_adu_lost(std::move(fn));
  else receiver_->set_on_adu_lost(std::move(fn));
}

void AlfSession::set_on_complete(std::function<void()> fn) {
  if (sup_) sup_->set_on_complete(std::move(fn));
  else receiver_->set_on_complete(std::move(fn));
}

void AlfSession::set_priority(alf::PriorityFn fn) {
  if (sup_) sup_->set_priority(std::move(fn));
  else receiver_->set_priority(std::move(fn));
}

// ---- SessionHandle ---------------------------------------------------------

SessionHandle& SessionHandle::operator=(SessionHandle&& o) noexcept {
  if (this != &o) {
    close();
    owner_ = o.owner_;
    flow_ = o.flow_;
    session_ = o.session_;
    o.owner_ = nullptr;
    o.session_ = nullptr;
  }
  return *this;
}

void SessionHandle::close() {
  if (session_ == nullptr) return;
  // The table owns the AlfSession: erasing the flow destroys the
  // endpoints (their destructors cancel every pending timer).
  owner_->table_.erase(flow_);
  owner_ = nullptr;
  session_ = nullptr;
}

// ---- alf_receiver_factory --------------------------------------------------

namespace {

// Receive-only table resident: the AlfReceiver lives inside the Session
// object itself, so create-on-first-frame is one allocation and dispatch
// is one pointer hop from the table entry. At 100k+ sessions the extra
// indirection of the general AlfSession shape is measurable (bench_sessiond
// probes cold flows); receive-only flows — the server shape — don't need it.
class ReceiverSession final : public Session {
 public:
  ReceiverSession(EventLoop& loop, NetPath& feedback_out,
                  const alf::SessionConfig& cfg)
      : rx_(loop, nullptr, feedback_out, cfg) {}

  void on_frame(ConstBytes frame) override {
    // Same direction demux as AlfSession, minus the sender arm: feedback
    // frames on a receive-only flow have nowhere to go and drop.
    const auto type = alf::peek_message_type(frame);
    if (!type) return;
    switch (*type) {
      case alf::MessageType::kData:
      case alf::MessageType::kDone:
      case alf::MessageType::kProbe:
        rx_.handle_frame(frame);
        break;
      default:
        break;
    }
  }

  alf::AlfReceiver& receiver() noexcept { return rx_; }

 private:
  alf::AlfReceiver rx_;
};

}  // namespace

SessionFactory alf_receiver_factory(EventLoop& loop, NetPath& feedback_out,
                                    alf::SessionConfig base,
                                    ReceiverFactoryOptions opts) {
  return [&loop, &feedback_out, base, opts](const FlowId& flow,
                                            ConstBytes) -> SessionPtr {
    alf::SessionConfig cfg = base;
    cfg.session_id = flow.session_id;
    auto sess = std::make_unique<ReceiverSession>(loop, feedback_out, cfg);
    sess->receiver().attach(opts);
    if (opts.configure) opts.configure(flow, sess->receiver());
    return sess;
  };
}

// ---- Sessiond --------------------------------------------------------------

Sessiond::Sessiond(EventLoop& loop, Config cfg)
    : loop_(loop), table_(cfg.table), dispatcher_(loop, table_) {
  table_.set_on_evict([this](const FlowId& flow, Session&, EvictReason why) {
    obs::flight_record(flight_, flight_track_,
                       obs::FlightStage::kSessionEvict,
                       obs::flight_trace_id(flow.session_id, 0),
                       static_cast<std::uint64_t>(why));
    if (on_evict_) on_evict_(flow, why);
  });
}

Result<SessionHandle> Sessiond::open(const alf::SessionConfig& session,
                                     const SessionPaths& paths,
                                     OpenOptions opts) {
  // The facade's contract: a handle is only ever built from a validated
  // config — misconfiguration fails here, not as a misbehaving endpoint.
  if (Status st = session.validate(); !st.is_ok()) return st.error();
  if (paths.data == nullptr || paths.feedback_tx == nullptr ||
      paths.feedback_rx == nullptr) {
    return {ErrorCode::kMalformed, "open() needs data + both feedback paths"};
  }
  const std::uint32_t peer = opts.peer != 0 ? opts.peer : next_open_peer_++;
  const FlowId flow{peer, session.session_id};

  // Admission first, endpoints second. Endpoint constructors register
  // frame handlers on the (shared) paths, so building them before the
  // table says yes would — on a duplicate or a full table — tear them
  // straight back down, leaving the paths' handlers dangling and the
  // already-resident session on those paths deaf. The placeholder
  // AlfSession is inert (no endpoints: on_frame drops), so reserving the
  // entry before the endpoints exist is safe even against concurrent
  // dispatch to this flow.
  auto sess = std::unique_ptr<AlfSession>(new AlfSession());
  AlfSession* raw = sess.get();
  auto admitted = table_.insert(flow, std::move(sess), loop_.now(),
                                /*pinned=*/true);
  if (!admitted.ok()) return admitted.error();

  if (opts.supervisor) {
    raw->sup_ = std::make_unique<resilience::SessionSupervisor>(
        loop_, *paths.data, *paths.feedback_tx, *paths.feedback_rx, session,
        opts.attach, *opts.supervisor);
  } else {
    // Hand-wired construction order, preserved exactly: sender first (its
    // ctor registers the feedback handler), then receiver (data handler).
    // Migrated programs replay the identical event sequence.
    raw->sender_ = std::make_unique<alf::AlfSender>(
        loop_, *paths.data, *paths.feedback_rx, session);
    raw->receiver_ = std::make_unique<alf::AlfReceiver>(
        loop_, *paths.data, *paths.feedback_tx, session);
    raw->receiver_->attach(opts.attach);
  }
  return SessionHandle(this, flow, raw);
}

void Sessiond::set_flight(obs::FlightRecorder* flight) {
  // One "sessiond" track per recorder, however many times we're pointed
  // at it: the track is cached so enable/disable/re-enable cycles neither
  // duplicate tracks nor fall back to writing stage events on track 0.
  if (flight != nullptr && flight != tracked_flight_) {
    tracked_flight_ = flight;
    tracked_track_ = flight->add_track("sessiond");
  }
  flight_ = flight;
  flight_track_ = flight != nullptr ? tracked_track_ : 0;
  dispatcher_.set_flight(flight_, flight_track_);
}

void Sessiond::emit_metrics(obs::MetricSink& sink) const {
  obs::PrefixedSink table(sink, "table.");
  table_.emit_metrics(table);
  obs::PrefixedSink dispatch(sink, "dispatch.");
  dispatcher_.emit_metrics(dispatch);
}

}  // namespace ngp::sessiond
