// negotiate.h — out-of-band session negotiation for ALF associations.
//
// The paper deliberately sets connection establishment aside from the
// data-transfer analysis (§3: session initiation "does not occur at the
// same time as data transfer"), and §5 expects endpoints to "negotiate to
// translate in one step from the sender to the receiver's format". This
// module is that out-of-band step: an initiator offers the session
// parameters (transfer syntax named by OBJECT IDENTIFIER, as OSI practice
// named syntaxes; integrity algorithm; FEC depth; encryption; pacing), the
// responder intersects the offer with its local capabilities, and both
// sides end up holding the same SessionConfig — which is exactly what the
// AlfSender / AlfReceiver constructors consume.
//
// The handshake runs over the same NetPaths the session will use, BEFORE
// the data endpoints are constructed (they take over the frame handlers).
// Offer frames are retransmitted on a timer until answered; the whole
// exchange is encoded in BER, eating our own presentation-layer dog food.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "alf/session.h"
#include "netsim/net_path.h"
#include "presentation/ber.h"
#include "util/event_loop.h"
#include "util/result.h"

namespace ngp::alf {

/// OIDs naming the transfer syntaxes (private arc 1.3.6.1.4.1.51990.1.x).
ber::ObjectId syntax_oid(TransferSyntax s);
/// Reverse mapping; nullopt for unknown OIDs.
std::optional<TransferSyntax> syntax_from_oid(const ber::ObjectId& oid);

/// What a responder is able/willing to do.
struct Capabilities {
  std::vector<TransferSyntax> syntaxes{TransferSyntax::kRaw, TransferSyntax::kLwts,
                                       TransferSyntax::kXdr, TransferSyntax::kBer};
  std::vector<ChecksumKind> checksums{ChecksumKind::kInternet, ChecksumKind::kFletcher32,
                                      ChecksumKind::kAdler32, ChecksumKind::kCrc32};
  bool can_encrypt = false;
  std::uint8_t max_fec_k = 8;

  bool supports(TransferSyntax s) const noexcept;
  bool supports(ChecksumKind c) const noexcept;
};

/// Pure negotiation logic: intersects an offer with local capabilities.
/// Returns the (possibly downgraded) config the responder will run, or an
/// error when no common ground exists (unsupported transfer syntax).
Result<SessionConfig> respond_to_offer(const SessionConfig& offer,
                                       const Capabilities& local);

// ---- Wire codecs (BER) --------------------------------------------------------------

/// Encodes an offer frame (magic 'H', kind 0, BER body).
ByteBuffer encode_offer(const SessionConfig& offer);
/// Encodes an answer frame (magic 'H', kind 1, BER body of the agreed
/// config; `accepted` false means the responder refuses outright).
ByteBuffer encode_answer(const SessionConfig& agreed, bool accepted);

struct OfferFrame {
  SessionConfig config;
};
struct AnswerFrame {
  SessionConfig config;
  bool accepted = false;
};

Result<OfferFrame> decode_offer(ConstBytes frame);
Result<AnswerFrame> decode_answer(ConstBytes frame);

/// True if `frame` is a handshake frame (so data-plane code can ignore it).
bool is_handshake_frame(ConstBytes frame) noexcept;

// ---- Async handshake drivers ----------------------------------------------------------

/// Initiator side: sends the offer, retransmits until an answer arrives or
/// retries are exhausted, then reports the agreed config.
class HandshakeInitiator {
 public:
  /// `tx` carries offers out; `rx` delivers the answer (handler
  /// registered here — release it before constructing data endpoints).
  HandshakeInitiator(EventLoop& loop, NetPath& tx, NetPath& rx, SessionConfig offer,
                     SimDuration retry = 50 * kMillisecond, int max_retries = 5);
  /// Clears the handler on `rx` and cancels the pending retry: both close
  /// over `this`, so an answer or a timer after teardown would call into
  /// freed memory.
  ~HandshakeInitiator();

  HandshakeInitiator(const HandshakeInitiator&) = delete;
  HandshakeInitiator& operator=(const HandshakeInitiator&) = delete;

  /// Completion callback: the agreed config, or an error (refused /
  /// timed out).
  void set_on_done(std::function<void(Result<SessionConfig>)> fn) {
    on_done_ = std::move(fn);
  }

  void start();
  bool done() const noexcept { return done_; }

 private:
  void send_offer();
  void on_frame(ConstBytes frame);

  EventLoop& loop_;
  NetPath& tx_;
  NetPath& rx_;
  SessionConfig offer_;
  SimDuration retry_;
  int retries_left_;
  EventId retry_timer_ = 0;  ///< the pending retry or timeout, if any
  bool done_ = false;
  std::function<void(Result<SessionConfig>)> on_done_;
};

/// Responder side: answers every offer with the negotiated config (the
/// answer also repairs lost answers, since the initiator retransmits).
class HandshakeResponder {
 public:
  HandshakeResponder(EventLoop& loop, NetPath& rx, NetPath& tx, Capabilities caps);
  /// Clears the handler on `rx`, which closes over `this`: an offer
  /// delivered after teardown then drops instead of calling freed memory.
  ~HandshakeResponder();

  HandshakeResponder(const HandshakeResponder&) = delete;
  HandshakeResponder& operator=(const HandshakeResponder&) = delete;

  /// Fires (once) when the first offer has been answered affirmatively.
  void set_on_session(std::function<void(const SessionConfig&)> fn) {
    on_session_ = std::move(fn);
  }

  bool have_session() const noexcept { return have_session_; }
  const SessionConfig& session() const noexcept { return agreed_; }

 private:
  void on_frame(ConstBytes frame);

  NetPath& rx_;
  NetPath& tx_;
  Capabilities caps_;
  bool have_session_ = false;
  SessionConfig agreed_;
  std::function<void(const SessionConfig&)> on_session_;
};

}  // namespace ngp::alf
