// Tests for alf/router: plane/session demultiplexing, multiple sessions
// over one link, and full-duplex ALF over a single duplex channel.
#include <gtest/gtest.h>

#include <map>

#include "alf/negotiate.h"
#include "alf/receiver.h"
#include "alf/router.h"
#include "alf/sender.h"
#include "netsim/net_path.h"
#include "test_paths.h"
#include "util/rng.h"

namespace ngp::alf {
namespace {

LinkConfig fast_link(std::uint64_t seed = 1) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = 2 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  cfg.seed = seed;
  return cfg;
}

ByteBuffer payload_of(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

TEST(FrameRouter, TeardownClearsItsHandlerOnThePathBelow) {
  // The router's handler closes over the router: after teardown a frame
  // the path below delivers must find no handler, not the freed router.
  EventLoop loop;
  test::LoopbackPath below;
  int delivered = 0;
  {
    FrameRouter router(below);
    router.data_plane(1).set_handler([&](ConstBytes) { ++delivered; });
    DoneMessage d;
    d.session = 1;
    below.send(encode_done(d).span());
    EXPECT_EQ(delivered, 1);
  }
  EXPECT_FALSE(below.has_handler());
  DoneMessage d;
  d.session = 1;
  below.send(encode_done(d).span());
  EXPECT_EQ(delivered, 1);
}

TEST(FrameRouter, RoutesDataAndFeedbackBySession) {
  EventLoop loop;
  Link link(loop, fast_link());
  LinkPath raw(link);
  FrameRouter router(raw);

  std::map<int, int> hits;  // plane-tag -> count
  router.data_plane(1).set_handler([&](ConstBytes) { ++hits[10 + 1]; });
  router.data_plane(2).set_handler([&](ConstBytes) { ++hits[10 + 2]; });
  router.feedback_plane(1).set_handler([&](ConstBytes) { ++hits[20 + 1]; });

  // One DATA frame per session, one NACK for session 1.
  auto p = ByteBuffer::from_string("x");
  for (std::uint16_t session : {std::uint16_t{1}, std::uint16_t{2}}) {
    DataFragment f;
    f.session = session;
    f.adu_id = 1;
    f.name = generic_name(1);
    f.adu_len = 1;
    f.payload = p.span();
    ByteBuffer frame = encode_fragment(f);
    link.send(frame.span());
  }
  NackMessage nack;
  nack.session = 1;
  nack.adu_ids = {9};
  ByteBuffer nf = encode_nack(nack);
  link.send(nf.span());
  loop.run();

  EXPECT_EQ(hits[11], 1);
  EXPECT_EQ(hits[12], 1);
  EXPECT_EQ(hits[21], 1);
  EXPECT_EQ(router.stats().frames_routed, 3u);
}

TEST(FrameRouter, UnroutableAndUndecodableCounted) {
  EventLoop loop;
  Link link(loop, fast_link());
  LinkPath raw(link);
  FrameRouter router(raw);
  router.data_plane(1).set_handler([](ConstBytes) {});

  // Session 5 has no plane.
  DataFragment f;
  f.session = 5;
  f.adu_id = 1;
  f.name = generic_name(1);
  f.adu_len = 1;
  auto p = ByteBuffer::from_string("y");
  f.payload = p.span();
  ByteBuffer frame = encode_fragment(f);
  link.send(frame.span());
  // Garbage.
  auto junk = ByteBuffer::from_string("garbage frame");
  link.send(junk.span());
  loop.run();

  EXPECT_EQ(router.stats().frames_unroutable, 1u);
  EXPECT_EQ(router.stats().frames_undecodable, 1u);
}

TEST(FrameRouter, ResumeAndProbeReachTheirPlanes) {
  // A supervised receiver's RESUME travels the feedback direction and a
  // PROBE the data direction, as sessiond::AlfSession::on_frame maps
  // them; a routed channel must carry both. Garbage is still undecodable.
  test::LoopbackPath below;
  FrameRouter router(below);
  int data = 0;
  int feedback = 0;
  router.data_plane(3).set_handler([&](ConstBytes) { ++data; });
  router.feedback_plane(3).set_handler([&](ConstBytes) { ++feedback; });

  ResumeMessage resume;
  resume.session = 3;
  resume.epoch = 2;
  resume.closed_prefix = 5;
  below.send(encode_resume(resume).span());
  EXPECT_EQ(feedback, 1);
  EXPECT_EQ(data, 0);

  ProbeMessage probe;
  probe.session = 3;
  probe.seq = 7;
  below.send(encode_probe(probe).span());
  EXPECT_EQ(data, 1);
  EXPECT_EQ(feedback, 1);

  const auto junk = ByteBuffer::from_string("garbage frame");
  below.send(junk.span());
  EXPECT_EQ(router.stats().frames_routed, 2u);
  EXPECT_EQ(router.stats().frames_unroutable, 0u);
  EXPECT_EQ(router.stats().frames_undecodable, 1u);
}

TEST(FrameRouter, HandshakePlaneSeparated) {
  EventLoop loop;
  Link link(loop, fast_link());
  LinkPath raw(link);
  FrameRouter router(raw);
  int handshakes = 0;
  router.handshake_plane().set_handler([&](ConstBytes) { ++handshakes; });
  ByteBuffer offer = encode_offer(SessionConfig{});
  link.send(offer.span());
  loop.run();
  EXPECT_EQ(handshakes, 1);
}

TEST(FrameRouter, TwoSessionsShareOneChannel) {
  // Two independent ALF sessions (different configs!) over ONE duplex
  // channel, demuxed by routers at both ends.
  EventLoop loop;
  DuplexChannel ch(loop, fast_link(2));
  ch.forward.set_loss_rate(0.05);
  LinkPath fwd(ch.forward), rev(ch.reverse);
  FrameRouter rx_router(fwd);   // receiver side of the forward link
  FrameRouter tx_router(rev);   // sender side's view of the reverse link

  SessionConfig s1;
  s1.session_id = 1;
  s1.checksum = ChecksumKind::kInternet;
  SessionConfig s2;
  s2.session_id = 2;
  s2.checksum = ChecksumKind::kCrc32;
  s2.fec_k = 4;

  AlfSender sender1(loop, rx_router.data_plane(1), tx_router.feedback_plane(1), s1);
  AlfSender sender2(loop, rx_router.data_plane(2), tx_router.feedback_plane(2), s2);
  // NOTE: senders transmit via a data-plane facade of the FORWARD link and
  // listen on the reverse link's feedback planes.
  AlfReceiver receiver1(loop, rx_router.data_plane(1), tx_router.feedback_plane(1), s1);
  AlfReceiver receiver2(loop, rx_router.data_plane(2), tx_router.feedback_plane(2), s2);

  std::map<std::uint64_t, ByteBuffer> sent1, sent2;
  std::size_t got1 = 0, got2 = 0;
  receiver1.set_on_adu([&](Adu&& a) {
    EXPECT_EQ(a.payload, sent1.at(a.name.a));
    ++got1;
  });
  receiver2.set_on_adu([&](Adu&& a) {
    EXPECT_EQ(a.payload, sent2.at(a.name.a));
    ++got2;
  });

  for (std::uint64_t i = 0; i < 20; ++i) {
    sent1.emplace(i, payload_of(2000, 100 + i));
    sent2.emplace(i, payload_of(3000, 200 + i));
    ASSERT_TRUE(sender1.send_adu(generic_name(i), sent1.at(i).span()).ok());
    ASSERT_TRUE(sender2.send_adu(generic_name(i), sent2.at(i).span()).ok());
  }
  sender1.finish();
  sender2.finish();
  loop.run();

  EXPECT_EQ(got1, 20u);
  EXPECT_EQ(got2, 20u);
}

TEST(FrameRouter, FullDuplexTransferOverOneChannel) {
  // A sends to B and B sends to A simultaneously, one duplex channel, one
  // router per link end. Data of one direction and feedback of the other
  // share each link.
  EventLoop loop;
  DuplexChannel ch(loop, fast_link(3));
  LinkPath fwd(ch.forward), rev(ch.reverse);
  FrameRouter fwd_router(fwd);  // frames arriving at B
  FrameRouter rev_router(rev);  // frames arriving at A

  SessionConfig ab;  // A -> B uses session 1
  ab.session_id = 1;
  SessionConfig ba;  // B -> A uses session 2
  ba.session_id = 2;

  // A's endpoints.
  AlfSender a_tx(loop, fwd_router.data_plane(1), rev_router.feedback_plane(1), ab);
  AlfReceiver a_rx(loop, rev_router.data_plane(2), fwd_router.feedback_plane(2), ba);
  // B's endpoints.
  AlfSender b_tx(loop, rev_router.data_plane(2), fwd_router.feedback_plane(2), ba);
  AlfReceiver b_rx(loop, fwd_router.data_plane(1), rev_router.feedback_plane(1), ab);

  auto to_b = payload_of(15'000, 1);
  auto to_a = payload_of(11'000, 2);
  std::size_t b_got = 0, a_got = 0;
  b_rx.set_on_adu([&](Adu&& adu) {
    EXPECT_EQ(adu.payload, to_b);
    ++b_got;
  });
  a_rx.set_on_adu([&](Adu&& adu) {
    EXPECT_EQ(adu.payload, to_a);
    ++a_got;
  });

  ASSERT_TRUE(a_tx.send_adu(generic_name(1), to_b.span()).ok());
  ASSERT_TRUE(b_tx.send_adu(generic_name(1), to_a.span()).ok());
  a_tx.finish();
  b_tx.finish();
  loop.run();

  EXPECT_EQ(b_got, 1u);
  EXPECT_EQ(a_got, 1u);
}

}  // namespace
}  // namespace ngp::alf
