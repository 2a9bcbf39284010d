#include "alf/association.h"

#include "obs/metrics.h"

namespace ngp::alf {

Association::Association(EventLoop& loop, NetPath& out_link, NetPath& in_link)
    : loop_(loop), out_link_(out_link), in_router_(in_link) {}

std::unique_ptr<Association> Association::initiate(EventLoop& loop, NetPath& out_link,
                                                   NetPath& in_link,
                                                   SessionConfig offer) {
  // Private constructor: cannot use make_unique.
  std::unique_ptr<Association> a(new Association(loop, out_link, in_link));
  Association* self = a.get();
  a->initiator_ = std::make_unique<HandshakeInitiator>(
      loop, out_link, a->in_router_.handshake_plane(), offer);
  a->initiator_->set_on_done([self](Result<SessionConfig> agreed) {
    if (!agreed.ok()) {
      if (self->on_established_) self->on_established_(agreed.error());
      return;
    }
    self->establish(*agreed, /*initiator=*/true);
  });
  a->initiator_->start();
  return a;
}

std::unique_ptr<Association> Association::listen(EventLoop& loop, NetPath& out_link,
                                                 NetPath& in_link, Capabilities caps) {
  std::unique_ptr<Association> a(new Association(loop, out_link, in_link));
  Association* self = a.get();
  a->responder_ = std::make_unique<HandshakeResponder>(
      loop, a->in_router_.handshake_plane(), out_link, std::move(caps));
  a->responder_->set_on_session([self](const SessionConfig& agreed) {
    self->establish(agreed, /*initiator=*/false);
  });
  return a;
}

void Association::establish(const SessionConfig& agreed, bool initiator) {
  agreed_ = agreed;
  // Initiator transmits on the offered id; responder on id + 1. Both
  // directions share every other negotiated parameter.
  SessionConfig tx_cfg = agreed;
  SessionConfig rx_cfg = agreed;
  if (initiator) {
    rx_cfg.session_id = static_cast<std::uint16_t>(agreed.session_id + 1);
  } else {
    tx_cfg.session_id = static_cast<std::uint16_t>(agreed.session_id + 1);
  }

  tx_ = std::make_unique<AlfSender>(loop_, out_link_,
                                    in_router_.feedback_plane(tx_cfg.session_id),
                                    tx_cfg);
  if (pending_recompute_) tx_->set_recompute(std::move(pending_recompute_));

  rx_ = std::make_unique<AlfReceiver>(loop_, in_router_.data_plane(rx_cfg.session_id),
                                      out_link_, rx_cfg);
  rx_->set_on_adu([this](Adu&& adu) {
    if (on_adu_) on_adu_(std::move(adu));
  });
  rx_->set_on_adu_lost([this](std::uint32_t id, const AduName& name, bool known) {
    if (on_adu_lost_) on_adu_lost_(id, name, known);
  });
  rx_->set_on_complete([this] {
    if (on_peer_done_) on_peer_done_();
  });

  established_ = true;
  if (on_established_) on_established_(agreed_);
}

Result<std::uint32_t> Association::send_adu(const AduName& name, ConstBytes payload) {
  if (!established_) {
    return Error{ErrorCode::kWouldBlock, "association not yet established"};
  }
  return tx_->send_adu(name, payload);
}

void Association::finish() {
  if (tx_) tx_->finish();
}

void Association::emit_metrics(obs::MetricSink& sink) const {
  if (tx_) {
    obs::PrefixedSink tx(sink, "tx.");
    tx_->emit_metrics(tx);
  }
  if (rx_) {
    obs::PrefixedSink rx(sink, "rx.");
    rx_->emit_metrics(rx);
  }
  obs::PrefixedSink router(sink, "router.");
  in_router_.emit_metrics(router);
}

void Association::set_recompute(RecomputeFn fn) {
  if (tx_) {
    tx_->set_recompute(std::move(fn));
  } else {
    pending_recompute_ = std::move(fn);
  }
}

}  // namespace ngp::alf
