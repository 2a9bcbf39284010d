#include "alf/negotiate.h"

#include <algorithm>

namespace ngp::alf {

namespace {
constexpr std::uint8_t kHandshakeMagic = 0x48;  // 'H'
constexpr std::uint8_t kKindOffer = 0;
constexpr std::uint8_t kKindAnswer = 1;
// Private enterprise arc for this protocol suite.
const ber::ObjectId kSyntaxArc{1, 3, 6, 1, 4, 1, 51990, 1};
}  // namespace

ber::ObjectId syntax_oid(TransferSyntax s) {
  ber::ObjectId oid = kSyntaxArc;
  oid.push_back(static_cast<std::uint32_t>(s));
  return oid;
}

std::optional<TransferSyntax> syntax_from_oid(const ber::ObjectId& oid) {
  if (oid.size() != kSyntaxArc.size() + 1) return std::nullopt;
  if (!std::equal(kSyntaxArc.begin(), kSyntaxArc.end(), oid.begin())) {
    return std::nullopt;
  }
  const std::uint32_t leaf = oid.back();
  if (leaf > static_cast<std::uint32_t>(TransferSyntax::kBerToolkit)) {
    return std::nullopt;
  }
  return static_cast<TransferSyntax>(leaf);
}

bool Capabilities::supports(TransferSyntax s) const noexcept {
  return std::find(syntaxes.begin(), syntaxes.end(), s) != syntaxes.end();
}

bool Capabilities::supports(ChecksumKind c) const noexcept {
  return std::find(checksums.begin(), checksums.end(), c) != checksums.end();
}

Result<SessionConfig> respond_to_offer(const SessionConfig& offer,
                                       const Capabilities& local) {
  // Single error path for malformed offers: every bound the endpoints rely
  // on is checked here, at handshake time, before any endpoint exists.
  if (Status v = offer.validate(); !v) return v.error();

  SessionConfig agreed = offer;

  // Transfer syntax is non-negotiable semantics: without a common syntax
  // the association cannot carry meaning.
  if (!local.supports(offer.syntax)) {
    return Error{ErrorCode::kUnsupported, "no common transfer syntax"};
  }
  // Integrity: downgrade to the strongest mutually supported kind.
  if (!local.supports(offer.checksum)) {
    const ChecksumKind order[] = {ChecksumKind::kCrc32, ChecksumKind::kFletcher32,
                                  ChecksumKind::kAdler32, ChecksumKind::kInternet};
    agreed.checksum = ChecksumKind::kNone;
    for (ChecksumKind k : order) {
      if (local.supports(k)) {
        agreed.checksum = k;
        break;
      }
    }
  }
  // Encryption requires both ends keyed.
  if (offer.encrypt && !local.can_encrypt) agreed.encrypt = false;
  // FEC depth bounded by the responder's reconstruction budget. A clamp
  // down to 1 would be pure duplication (validate() rejects it), so the
  // downgrade path disables FEC instead.
  agreed.fec_k = std::min(agreed.fec_k, local.max_fec_k);
  if (agreed.fec_k == 1) agreed.fec_k = 0;
  return agreed;
}

// ---- Wire codecs --------------------------------------------------------------------
// Frame: magic(1) kind(1) | BER SEQUENCE {
//   version INTEGER, session INTEGER, syntax OID, checksum INTEGER,
//   retransmit INTEGER, process INTEGER, encrypt BOOLEAN, fec INTEGER,
//   pace INTEGER (bps), accepted BOOLEAN (answers only) }

namespace {

constexpr std::int64_t kVersion = 1;

ByteBuffer encode_body(const SessionConfig& c, std::optional<bool> accepted) {
  ByteBuffer body;
  ber::BerWriter w(body);
  w.write_integer(kVersion);
  w.write_integer(c.session_id);
  (void)w.write_oid(syntax_oid(c.syntax));
  w.write_integer(static_cast<std::int64_t>(c.checksum));
  w.write_integer(static_cast<std::int64_t>(c.retransmit));
  w.write_integer(static_cast<std::int64_t>(c.process_mode));
  w.write_boolean(c.encrypt);
  w.write_integer(c.fec_k);
  w.write_integer(static_cast<std::int64_t>(c.pace_bps));
  if (accepted) w.write_boolean(*accepted);

  ByteBuffer out;
  out.append(kHandshakeMagic);
  out.append(accepted ? kKindAnswer : kKindOffer);
  ber::BerWriter seq(out);
  seq.begin_sequence(body.size());
  out.append(body.span());
  return out;
}

Result<SessionConfig> decode_body(ber::BerReader& r, bool* accepted_out) {
  SessionConfig c;
  auto version = r.read_integer();
  if (!version) return version.error();
  if (*version != kVersion) return Error{ErrorCode::kUnsupported, "version"};

  auto session = r.read_integer();
  if (!session) return session.error();
  if (*session < 0 || *session > UINT16_MAX) {
    return Error{ErrorCode::kOutOfRange, "session id"};
  }
  c.session_id = static_cast<std::uint16_t>(*session);

  auto oid = r.read_oid();
  if (!oid) return oid.error();
  auto syntax = syntax_from_oid(*oid);
  if (!syntax) return Error{ErrorCode::kUnsupported, "unknown syntax OID"};
  c.syntax = *syntax;

  auto checksum = r.read_integer();
  if (!checksum) return checksum.error();
  if (*checksum < 0 || *checksum > static_cast<std::int64_t>(ChecksumKind::kCrc32)) {
    return Error{ErrorCode::kOutOfRange, "checksum kind"};
  }
  c.checksum = static_cast<ChecksumKind>(*checksum);

  auto retransmit = r.read_integer();
  if (!retransmit) return retransmit.error();
  if (*retransmit < 0 ||
      *retransmit > static_cast<std::int64_t>(RetransmitPolicy::kNone)) {
    return Error{ErrorCode::kOutOfRange, "retransmit policy"};
  }
  c.retransmit = static_cast<RetransmitPolicy>(*retransmit);

  auto process = r.read_integer();
  if (!process) return process.error();
  if (*process < 0 || *process > static_cast<std::int64_t>(ProcessMode::kLayered)) {
    return Error{ErrorCode::kOutOfRange, "process mode"};
  }
  c.process_mode = static_cast<ProcessMode>(*process);

  auto encrypt = r.read_boolean();
  if (!encrypt) return encrypt.error();
  c.encrypt = *encrypt;

  auto fec = r.read_integer();
  if (!fec) return fec.error();
  if (*fec < 0 || *fec > 255) return Error{ErrorCode::kOutOfRange, "fec_k"};
  c.fec_k = static_cast<std::uint8_t>(*fec);

  auto pace = r.read_integer();
  if (!pace) return pace.error();
  if (*pace < 0) return Error{ErrorCode::kOutOfRange, "pace"};
  c.pace_bps = static_cast<double>(*pace);

  if (accepted_out != nullptr) {
    auto accepted = r.read_boolean();
    if (!accepted) return accepted.error();
    *accepted_out = *accepted;
  }
  return c;
}

Result<ber::BerReader> open_frame(ConstBytes frame, std::uint8_t want_kind) {
  if (frame.size() < 2 || frame[0] != kHandshakeMagic) {
    return Error{ErrorCode::kMalformed, "not a handshake frame"};
  }
  if (frame[1] != want_kind) return Error{ErrorCode::kMalformed, "wrong kind"};
  ber::BerReader top(frame.subspan(2));
  return top.enter_sequence();
}

}  // namespace

ByteBuffer encode_offer(const SessionConfig& offer) {
  return encode_body(offer, std::nullopt);
}

ByteBuffer encode_answer(const SessionConfig& agreed, bool accepted) {
  return encode_body(agreed, accepted);
}

Result<OfferFrame> decode_offer(ConstBytes frame) {
  auto seq = open_frame(frame, kKindOffer);
  if (!seq) return seq.error();
  auto config = decode_body(*seq, nullptr);
  if (!config) return config.error();
  return OfferFrame{*config};
}

Result<AnswerFrame> decode_answer(ConstBytes frame) {
  auto seq = open_frame(frame, kKindAnswer);
  if (!seq) return seq.error();
  AnswerFrame out;
  auto config = decode_body(*seq, &out.accepted);
  if (!config) return config.error();
  out.config = *config;
  return out;
}

bool is_handshake_frame(ConstBytes frame) noexcept {
  return !frame.empty() && frame[0] == kHandshakeMagic;
}

// ---- Drivers ------------------------------------------------------------------------

HandshakeInitiator::HandshakeInitiator(EventLoop& loop, NetPath& tx, NetPath& rx,
                                       SessionConfig offer, SimDuration retry,
                                       int max_retries)
    : loop_(loop), tx_(tx), rx_(rx), offer_(offer), retry_(retry),
      retries_left_(max_retries) {
  rx_.set_handler([this](ConstBytes frame) { on_frame(frame); });
}

HandshakeInitiator::~HandshakeInitiator() {
  rx_.set_handler(nullptr);
  if (retry_timer_ != 0) loop_.cancel(retry_timer_);
}

void HandshakeInitiator::start() {
  // A locally malformed offer fails fast, through the same single error
  // path a responder would use — never onto the wire.
  if (Status v = offer_.validate(); !v) {
    done_ = true;
    if (on_done_) on_done_(v.error());
    return;
  }
  send_offer();
}

void HandshakeInitiator::send_offer() {
  if (done_) return;
  ByteBuffer frame = encode_offer(offer_);
  tx_.send(frame.span());
  if (retries_left_-- > 0) {
    retry_timer_ = loop_.schedule_after(retry_, [this] {
      retry_timer_ = 0;
      if (!done_) send_offer();
    });
  } else {
    retry_timer_ = loop_.schedule_after(retry_, [this] {
      retry_timer_ = 0;
      if (done_) return;
      done_ = true;
      if (on_done_) {
        on_done_(Error{ErrorCode::kClosed, "handshake timed out"});
      }
    });
  }
}

void HandshakeInitiator::on_frame(ConstBytes frame) {
  if (done_) return;
  auto answer = decode_answer(frame);
  if (!answer) return;  // not an answer (or damaged): keep waiting
  done_ = true;
  if (!on_done_) return;
  if (!answer->accepted) {
    on_done_(Error{ErrorCode::kUnsupported, "responder refused the offer"});
  } else {
    on_done_(answer->config);
  }
}

HandshakeResponder::HandshakeResponder(EventLoop& loop, NetPath& rx, NetPath& tx,
                                       Capabilities caps)
    : rx_(rx), tx_(tx), caps_(std::move(caps)) {
  (void)loop;
  rx_.set_handler([this](ConstBytes frame) { on_frame(frame); });
}

HandshakeResponder::~HandshakeResponder() { rx_.set_handler(nullptr); }

void HandshakeResponder::on_frame(ConstBytes frame) {
  auto offer = decode_offer(frame);
  if (!offer) return;

  auto agreed = respond_to_offer(offer->config, caps_);
  if (!agreed) {
    ByteBuffer refusal = encode_answer(offer->config, /*accepted=*/false);
    tx_.send(refusal.span());
    return;
  }
  ByteBuffer answer = encode_answer(*agreed, /*accepted=*/true);
  tx_.send(answer.span());
  if (!have_session_) {
    have_session_ = true;
    agreed_ = *agreed;
    if (on_session_) on_session_(agreed_);
  }
}

}  // namespace ngp::alf
