// Tests for the out-of-band session negotiation (src/alf/negotiate):
// OID naming, offer/answer codecs, capability intersection, and the async
// handshake over lossy paths feeding real data endpoints.
#include <gtest/gtest.h>

#include <memory>

#include "alf/negotiate.h"
#include "alf/receiver.h"
#include "alf/sender.h"
#include "test_paths.h"
#include "util/rng.h"

namespace ngp::alf {
namespace {

// ---- OID mapping -------------------------------------------------------------------

TEST(SyntaxOid, RoundTripsEverySyntax) {
  for (TransferSyntax s : {TransferSyntax::kRaw, TransferSyntax::kLwts,
                           TransferSyntax::kXdr, TransferSyntax::kBer,
                           TransferSyntax::kBerToolkit}) {
    auto oid = syntax_oid(s);
    auto back = syntax_from_oid(oid);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
}

TEST(SyntaxOid, RejectsForeignOids) {
  EXPECT_FALSE(syntax_from_oid({1, 3, 6, 1}).has_value());
  EXPECT_FALSE(syntax_from_oid({2, 5, 4, 3}).has_value());
  auto oid = syntax_oid(TransferSyntax::kXdr);
  oid.back() = 200;  // unknown leaf
  EXPECT_FALSE(syntax_from_oid(oid).has_value());
}

TEST(BerOid, EncodeDecodeKnownValue) {
  // 1.3.6.1.4.1 — the classic enterprises arc — encodes as 2b 06 01 04 01.
  ByteBuffer out;
  ber::BerWriter w(out);
  ASSERT_TRUE(w.write_oid({1, 3, 6, 1, 4, 1}).is_ok());
  EXPECT_EQ(to_hex(out.span()), "06052b06010401");
  ber::BerReader r(out.span());
  auto oid = r.read_oid();
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(*oid, (ber::ObjectId{1, 3, 6, 1, 4, 1}));
}

TEST(BerOid, MultiByteArcs) {
  ByteBuffer out;
  ber::BerWriter w(out);
  ASSERT_TRUE(w.write_oid({1, 3, 51990, 1000000}).is_ok());
  ber::BerReader r(out.span());
  auto oid = r.read_oid();
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(*oid, (ber::ObjectId{1, 3, 51990, 1000000}));
}

TEST(BerOid, FirstArcTwoSplitsCorrectly) {
  ByteBuffer out;
  ber::BerWriter w(out);
  ASSERT_TRUE(w.write_oid({2, 999, 3}).is_ok());
  ber::BerReader r(out.span());
  auto oid = r.read_oid();
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(*oid, (ber::ObjectId{2, 999, 3}));
}

TEST(BerOid, WriterRejectsInvalid) {
  ByteBuffer out;
  ber::BerWriter w(out);
  EXPECT_FALSE(w.write_oid({1}).is_ok());         // too short
  EXPECT_FALSE(w.write_oid({3, 1}).is_ok());      // first arc > 2
  EXPECT_FALSE(w.write_oid({0, 40, 1}).is_ok());  // second arc >= 40 under 0
}

TEST(BerOid, ReaderRejectsNonMinimalArc) {
  auto bad = from_hex("06022b80");  // trailing unterminated arc
  ber::BerReader r(bad.span());
  EXPECT_FALSE(r.read_oid().ok());
  auto padded = from_hex("0603802b06");  // leading 0x80 arc byte
  ber::BerReader r2(padded.span());
  EXPECT_FALSE(r2.read_oid().ok());
}

// ---- Offer/answer codecs -------------------------------------------------------------

SessionConfig fancy_offer() {
  SessionConfig c;
  c.session_id = 777;
  c.syntax = TransferSyntax::kXdr;
  c.checksum = ChecksumKind::kCrc32;
  c.retransmit = RetransmitPolicy::kApplicationRecompute;
  c.process_mode = ProcessMode::kLayered;
  c.encrypt = true;
  c.fec_k = 4;
  c.pace_bps = 25e6;
  return c;
}

TEST(HandshakeCodec, OfferRoundTrip) {
  ByteBuffer frame = encode_offer(fancy_offer());
  EXPECT_TRUE(is_handshake_frame(frame.span()));
  auto offer = decode_offer(frame.span());
  ASSERT_TRUE(offer.ok()) << offer.error().to_string();
  const SessionConfig& c = offer->config;
  EXPECT_EQ(c.session_id, 777);
  EXPECT_EQ(c.syntax, TransferSyntax::kXdr);
  EXPECT_EQ(c.checksum, ChecksumKind::kCrc32);
  EXPECT_EQ(c.retransmit, RetransmitPolicy::kApplicationRecompute);
  EXPECT_EQ(c.process_mode, ProcessMode::kLayered);
  EXPECT_TRUE(c.encrypt);
  EXPECT_EQ(c.fec_k, 4);
  EXPECT_DOUBLE_EQ(c.pace_bps, 25e6);
}

TEST(HandshakeCodec, AnswerRoundTrip) {
  ByteBuffer frame = encode_answer(fancy_offer(), true);
  auto answer = decode_answer(frame.span());
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->accepted);
  EXPECT_EQ(answer->config.session_id, 777);

  ByteBuffer refusal = encode_answer(fancy_offer(), false);
  auto refused = decode_answer(refusal.span());
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->accepted);
}

TEST(HandshakeCodec, KindsDoNotCrossDecode) {
  ByteBuffer offer = encode_offer(fancy_offer());
  EXPECT_FALSE(decode_answer(offer.span()).ok());
  ByteBuffer answer = encode_answer(fancy_offer(), true);
  EXPECT_FALSE(decode_offer(answer.span()).ok());
}

TEST(HandshakeCodec, DataFramesAreNotHandshake) {
  ByteBuffer not_hs = ByteBuffer::from_string("Anything else");
  EXPECT_FALSE(decode_offer(not_hs.span()).ok());
  EXPECT_FALSE(is_handshake_frame(ByteBuffer::from_string("A").span()));
}

TEST(HandshakeCodec, TruncationRejected) {
  ByteBuffer frame = encode_offer(fancy_offer());
  for (std::size_t keep : {std::size_t{1}, std::size_t{2}, frame.size() / 2,
                           frame.size() - 1}) {
    EXPECT_FALSE(decode_offer(frame.span().subspan(0, keep)).ok()) << keep;
  }
}

// ---- Capability intersection -----------------------------------------------------------

TEST(RespondToOffer, AcceptsFullySupported) {
  Capabilities caps;
  caps.can_encrypt = true;
  auto agreed = respond_to_offer(fancy_offer(), caps);
  ASSERT_TRUE(agreed.ok());
  EXPECT_EQ(agreed->syntax, TransferSyntax::kXdr);
  EXPECT_TRUE(agreed->encrypt);
}

TEST(RespondToOffer, RefusesUnknownSyntax) {
  Capabilities caps;
  caps.syntaxes = {TransferSyntax::kRaw};
  auto agreed = respond_to_offer(fancy_offer(), caps);
  ASSERT_FALSE(agreed.ok());
  EXPECT_EQ(agreed.error().code, ErrorCode::kUnsupported);
}

TEST(RespondToOffer, DowngradesChecksumToStrongestCommon) {
  Capabilities caps;
  caps.checksums = {ChecksumKind::kInternet, ChecksumKind::kFletcher32};
  SessionConfig offer = fancy_offer();  // asks for CRC-32
  auto agreed = respond_to_offer(offer, caps);
  ASSERT_TRUE(agreed.ok());
  EXPECT_EQ(agreed->checksum, ChecksumKind::kFletcher32);
}

TEST(RespondToOffer, DropsEncryptionWhenUnkeyed) {
  Capabilities caps;  // can_encrypt defaults false
  auto agreed = respond_to_offer(fancy_offer(), caps);
  ASSERT_TRUE(agreed.ok());
  EXPECT_FALSE(agreed->encrypt);
}

TEST(RespondToOffer, ClampsFecDepth) {
  Capabilities caps;
  caps.can_encrypt = true;
  caps.max_fec_k = 2;
  auto agreed = respond_to_offer(fancy_offer(), caps);
  ASSERT_TRUE(agreed.ok());
  EXPECT_EQ(agreed->fec_k, 2);
}

// ---- SessionConfig::validate — the single bounds-check path ----------------------------

TEST(SessionConfigValidate, DefaultAndFancyConfigsPass) {
  EXPECT_TRUE(SessionConfig{}.validate().is_ok());
  EXPECT_TRUE(fancy_offer().validate().is_ok());
}

TEST(SessionConfigValidate, NamesEveryRejectableField) {
  SessionConfig c;
  c.max_adu_len = 0;
  EXPECT_FALSE(c.validate().is_ok());

  c = SessionConfig{};
  c.reassembly_bytes_limit = c.max_adu_len - 1;  // full-size ADU can never fit
  EXPECT_FALSE(c.validate().is_ok());

  c = SessionConfig{};
  c.retransmit = RetransmitPolicy::kTransportBuffered;
  c.retransmit_buffer_limit = c.max_adu_len - 1;
  EXPECT_FALSE(c.validate().is_ok());

  c = SessionConfig{};
  c.pace_bps = -1.0;
  EXPECT_FALSE(c.validate().is_ok());

  c = SessionConfig{};
  c.nack_delay = 0;
  EXPECT_FALSE(c.validate().is_ok());

  c = SessionConfig{};
  c.progress_interval = 0;
  EXPECT_FALSE(c.validate().is_ok());

  c = SessionConfig{};
  c.fec_k = 1;  // parity-per-fragment is pure duplication; grouping needs k>=2
  EXPECT_FALSE(c.validate().is_ok());
}

TEST(RespondToOffer, RejectsMalformedOfferAtHandshake) {
  Capabilities caps;
  caps.can_encrypt = true;
  SessionConfig offer = fancy_offer();
  offer.max_adu_len = 0;  // a forged/corrupt offer must die in one place
  auto agreed = respond_to_offer(offer, caps);
  ASSERT_FALSE(agreed.ok());
  EXPECT_EQ(agreed.error().code, ErrorCode::kOutOfRange);

  offer = fancy_offer();
  offer.nack_delay = -5;
  EXPECT_FALSE(respond_to_offer(offer, caps).ok());
}

// ---- Async handshake over the simulator ------------------------------------------------

struct HandshakeHarness {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath fwd_tx, fwd_rx, rev_tx, rev_rx;

  explicit HandshakeHarness(double loss, std::uint64_t seed = 1)
      : channel(loop,
                [&] {
                  LinkConfig cfg;
                  cfg.bandwidth_bps = 50e6;
                  cfg.propagation_delay = 3 * kMillisecond;
                  cfg.seed = seed;
                  return cfg;
                }()),
        fwd_tx(channel.forward), fwd_rx(channel.forward),
        rev_tx(channel.reverse), rev_rx(channel.reverse) {
    channel.forward.set_loss_rate(loss);
    channel.reverse.set_loss_rate(loss);
  }
};

TEST(Handshake, InitiatorTeardownClearsItsHandlerAndRetry) {
  // The answer handler and the retry timer both close over the initiator:
  // after teardown an answer on the path below finds no handler, and no
  // retry fires to send another offer.
  EventLoop loop;
  test::LoopbackPath rx;
  test::SinkPath tx;
  bool done = false;
  {
    HandshakeInitiator initiator(loop, tx, rx, fancy_offer());
    initiator.set_on_done([&](Result<SessionConfig>) { done = true; });
    initiator.start();
    ASSERT_EQ(tx.frames.size(), 1u);
    EXPECT_EQ(loop.pending(), 1u);
  }
  EXPECT_FALSE(rx.has_handler());
  EXPECT_EQ(loop.pending(), 0u);
  rx.send(encode_answer(fancy_offer(), /*accepted=*/true).span());
  loop.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(tx.frames.size(), 1u);
}

TEST(Handshake, ResponderTeardownClearsItsHandler) {
  EventLoop loop;
  test::LoopbackPath rx;
  test::SinkPath tx;
  {
    HandshakeResponder responder(loop, rx, tx, Capabilities{});
    rx.send(encode_offer(fancy_offer()).span());
    EXPECT_EQ(tx.frames.size(), 1u);  // answered while alive
  }
  EXPECT_FALSE(rx.has_handler());
  rx.send(encode_offer(fancy_offer()).span());
  EXPECT_EQ(tx.frames.size(), 1u);
}

TEST(Handshake, CleanPathAgrees) {
  HandshakeHarness h(0.0);
  Capabilities caps;
  caps.can_encrypt = true;
  HandshakeResponder responder(h.loop, h.fwd_rx, h.rev_tx, caps);
  HandshakeInitiator initiator(h.loop, h.fwd_tx, h.rev_rx, fancy_offer());

  Result<SessionConfig> got(Error{ErrorCode::kNotFound, "no callback"});
  initiator.set_on_done([&](Result<SessionConfig> r) { got = std::move(r); });
  initiator.start();
  h.loop.run();

  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_TRUE(responder.have_session());
  EXPECT_EQ(got->session_id, responder.session().session_id);
  EXPECT_TRUE(got->encrypt);
}

TEST(Handshake, SurvivesLossViaRetry) {
  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    HandshakeHarness h(0.3, seed);
    Capabilities caps;
    caps.can_encrypt = true;
    HandshakeResponder responder(h.loop, h.fwd_rx, h.rev_tx, caps);
    HandshakeInitiator initiator(h.loop, h.fwd_tx, h.rev_rx, fancy_offer(),
                                 30 * kMillisecond, /*max_retries=*/10);
    Result<SessionConfig> got(Error{ErrorCode::kNotFound, {}});
    initiator.set_on_done([&](Result<SessionConfig> r) { got = std::move(r); });
    initiator.start();
    h.loop.run();
    if (got.ok()) ++successes;
  }
  // 11 attempts at 30% loss each way: per-run failure odds are tiny.
  EXPECT_GE(successes, 7);
}

TEST(Handshake, TimesOutWithoutResponder) {
  HandshakeHarness h(0.0);
  HandshakeInitiator initiator(h.loop, h.fwd_tx, h.rev_rx, fancy_offer(),
                               20 * kMillisecond, 3);
  Result<SessionConfig> got(Error{ErrorCode::kNotFound, {}});
  bool called = false;
  initiator.set_on_done([&](Result<SessionConfig> r) {
    called = true;
    got = std::move(r);
  });
  initiator.start();
  h.loop.run();
  ASSERT_TRUE(called);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, ErrorCode::kClosed);
}

TEST(Handshake, RefusalReported) {
  HandshakeHarness h(0.0);
  Capabilities caps;
  caps.syntaxes = {TransferSyntax::kRaw};  // cannot do XDR
  HandshakeResponder responder(h.loop, h.fwd_rx, h.rev_tx, caps);
  HandshakeInitiator initiator(h.loop, h.fwd_tx, h.rev_rx, fancy_offer());
  Result<SessionConfig> got(Error{ErrorCode::kNotFound, {}});
  initiator.set_on_done([&](Result<SessionConfig> r) { got = std::move(r); });
  initiator.start();
  h.loop.run();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, ErrorCode::kUnsupported);
}

TEST(Handshake, NegotiatedSessionCarriesData) {
  // Full lifecycle: negotiate, then construct the data endpoints from the
  // agreed config and transfer an ADU.
  HandshakeHarness h(0.0);
  Capabilities caps;  // unkeyed: encryption must be dropped
  HandshakeResponder responder(h.loop, h.fwd_rx, h.rev_tx, caps);
  SessionConfig offer = fancy_offer();
  offer.retransmit = RetransmitPolicy::kTransportBuffered;
  HandshakeInitiator initiator(h.loop, h.fwd_tx, h.rev_rx, offer);

  std::unique_ptr<AlfSender> sender;
  std::unique_ptr<AlfReceiver> receiver;
  std::vector<Adu> delivered;
  ByteBuffer payload(5000);
  Rng rng(3);
  rng.fill(payload.span());

  // Responder side: once the session exists, stand up the receiver.
  responder.set_on_session([&](const SessionConfig& agreed) {
    receiver = std::make_unique<AlfReceiver>(h.loop, h.fwd_rx, h.rev_tx, agreed);
    receiver->set_on_adu([&](Adu&& a) { delivered.push_back(std::move(a)); });
  });
  // Initiator side: once agreed, stand up the sender and transfer.
  initiator.set_on_done([&](Result<SessionConfig> agreed) {
    ASSERT_TRUE(agreed.ok());
    EXPECT_FALSE(agreed->encrypt);  // downgraded by the responder
    sender = std::make_unique<AlfSender>(h.loop, h.fwd_tx, h.rev_rx, *agreed);
    ASSERT_TRUE(sender->send_adu(generic_name(1), payload.span()).ok());
    sender->finish();
  });
  initiator.start();
  h.loop.run();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, payload);
  EXPECT_EQ(delivered[0].syntax, TransferSyntax::kXdr);
}

}  // namespace
}  // namespace ngp::alf
