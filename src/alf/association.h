// association.h — one-object, full-duplex ALF association.
//
// The assembled product of the whole suite: a FrameRouter on each link
// direction (§3 multiplexing), an out-of-band handshake (negotiate.h), and
// a sender + receiver pair per side, so both ends can exchange named ADUs
// over a single duplex channel. This is the API a downstream application
// starts from; the lower layers stay public for anyone assembling a
// different shape (striping, simplex flows, custom substrates).
//
// Convention: the initiator's outbound ADUs travel on the offered
// session_id, the responder's outbound on session_id + 1. Both directions
// share every negotiated parameter.
//
//   auto a = Association::initiate(loop, out_path, in_path, offer);
//   a->set_on_established([&](const SessionConfig&) { ... start sending });
//   a->set_on_adu([&](Adu&& adu) { ... });
//   a->send_adu(name, bytes);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "alf/negotiate.h"
#include "alf/receiver.h"
#include "alf/router.h"
#include "alf/sender.h"

namespace ngp::alf {

/// A full-duplex ALF endpoint (either side of one association).
class Association {
 public:
  /// Active opener: offers `config` to the peer. `out_link` carries frames
  /// toward the peer; `in_link` delivers frames from the peer.
  static std::unique_ptr<Association> initiate(EventLoop& loop, NetPath& out_link,
                                               NetPath& in_link, SessionConfig offer);

  /// Passive opener: answers the first acceptable offer.
  static std::unique_ptr<Association> listen(EventLoop& loop, NetPath& out_link,
                                             NetPath& in_link, Capabilities caps);

  /// Fires once when the handshake concludes (the agreed config, or an
  /// error for refusal/timeout on the initiator side).
  void set_on_established(std::function<void(Result<SessionConfig>)> fn) {
    on_established_ = std::move(fn);
  }

  /// Complete inbound ADUs, out of order as they finish.
  void set_on_adu(std::function<void(Adu&&)> fn) { on_adu_ = std::move(fn); }
  /// Inbound loss reports, in application terms.
  void set_on_adu_lost(
      std::function<void(std::uint32_t, const AduName&, bool)> fn) {
    on_adu_lost_ = std::move(fn);
  }
  /// The peer finished its outbound stream and we have everything.
  void set_on_peer_finished(std::function<void()> fn) { on_peer_done_ = std::move(fn); }

  /// Sends one named ADU (fails with kWouldBlock before establishment).
  Result<std::uint32_t> send_adu(const AduName& name, ConstBytes payload);

  /// Ends our outbound stream (the peer's receive side completes).
  void finish();

  /// Installs the application-recompute callback for our outbound ADUs.
  void set_recompute(RecomputeFn fn);

  bool established() const noexcept { return established_; }
  const SessionConfig& config() const noexcept { return agreed_; }

  /// Transport endpoints (valid after establishment). Stats follow the
  /// uniform convention: a.sender().stats(), a.receiver().stats().
  const AlfSender& sender() const { return *tx_; }
  const AlfReceiver& receiver() const { return *rx_; }

  /// Writes the sender's counters under "tx.", the receiver's under "rx."
  /// and the demux's under "router.". Before establishment only the
  /// router reports: the endpoints do not exist yet.
  void emit_metrics(obs::MetricSink& sink) const;

 private:
  Association(EventLoop& loop, NetPath& out_link, NetPath& in_link);

  void establish(const SessionConfig& agreed, bool initiator);

  EventLoop& loop_;
  NetPath& out_link_;  ///< raw sends toward the peer (no routing needed)
  FrameRouter in_router_;  ///< demuxes everything the peer sends us

  std::unique_ptr<HandshakeInitiator> initiator_;
  std::unique_ptr<HandshakeResponder> responder_;
  std::unique_ptr<AlfSender> tx_;
  std::unique_ptr<AlfReceiver> rx_;
  RecomputeFn pending_recompute_;

  bool established_ = false;
  SessionConfig agreed_;

  std::function<void(Result<SessionConfig>)> on_established_;
  std::function<void(Adu&&)> on_adu_;
  std::function<void(std::uint32_t, const AduName&, bool)> on_adu_lost_;
  std::function<void()> on_peer_done_;
};

}  // namespace ngp::alf
