// Tests for the unframed byte pipe (netsim/byte_stream_link) and the
// framing sublayer (netsim/framing) — §3's Framing function over §5's
// framing-free fiber.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "netsim/framing.h"
#include "util/rng.h"

namespace ngp {
namespace {

ByteStreamConfig pipe_cfg(std::uint64_t seed = 1) {
  ByteStreamConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = kMillisecond;
  cfg.seed = seed;
  return cfg;
}

// ---- ByteStreamLink -----------------------------------------------------------------

TEST(ByteStreamLink, DeliversAllBytesInOrder) {
  EventLoop loop;
  ByteStreamLink pipe(loop, pipe_cfg());
  ByteBuffer got;
  pipe.set_reader([&](ConstBytes c) { got.append(c); });
  ByteBuffer sent(10'000);
  Rng rng(1);
  rng.fill(sent.span());
  EXPECT_EQ(pipe.write(sent.span()), sent.size());
  loop.run();
  EXPECT_EQ(got, sent);
}

TEST(ByteStreamLink, ChunksDoNotRespectWriteBoundaries) {
  EventLoop loop;
  auto cfg = pipe_cfg(7);
  cfg.max_chunk = 64;
  ByteStreamLink pipe(loop, cfg);
  std::vector<std::size_t> chunk_sizes;
  pipe.set_reader([&](ConstBytes c) { chunk_sizes.push_back(c.size()); });
  ByteBuffer msg(1000);
  pipe.write(msg.span());
  pipe.write(msg.span());
  loop.run();
  // Many chunks, none larger than max_chunk, and almost surely not two
  // clean 1000-byte deliveries.
  EXPECT_GT(chunk_sizes.size(), 10u);
  for (auto s : chunk_sizes) EXPECT_LE(s, 64u);
}

TEST(ByteStreamLink, CorruptionFlipsBitsButKeepsLength) {
  EventLoop loop;
  auto cfg = pipe_cfg(3);
  cfg.bit_flip_rate = 0.05;
  ByteStreamLink pipe(loop, cfg);
  ByteBuffer got;
  pipe.set_reader([&](ConstBytes c) { got.append(c); });
  ByteBuffer sent(20'000);
  pipe.write(sent.span());  // all zeros
  loop.run();
  ASSERT_EQ(got.size(), sent.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < got.size(); ++i) diffs += got[i] != 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(diffs) / 20000.0, 0.05, 0.01);
  EXPECT_EQ(pipe.stats().bytes_corrupted, diffs);
}

TEST(ByteStreamLink, DeletionShortensStream) {
  EventLoop loop;
  auto cfg = pipe_cfg(4);
  cfg.byte_loss_rate = 0.1;
  ByteStreamLink pipe(loop, cfg);
  std::size_t got = 0;
  pipe.set_reader([&](ConstBytes c) { got += c.size(); });
  ByteBuffer sent(20'000);
  pipe.write(sent.span());
  loop.run();
  EXPECT_NEAR(static_cast<double>(got) / 20000.0, 0.9, 0.02);
}

TEST(ByteStreamLink, ThroughputMatchesBandwidth) {
  EventLoop loop;
  auto cfg = pipe_cfg(5);
  cfg.bandwidth_bps = 8e6;  // 1 MB/s
  cfg.propagation_delay = 0;
  ByteStreamLink pipe(loop, cfg);
  SimTime last = 0;
  pipe.set_reader([&](ConstBytes) { last = loop.now(); });
  ByteBuffer sent(100'000);  // 0.1 s at 1 MB/s
  pipe.write(sent.span());
  loop.run();
  EXPECT_NEAR(to_seconds(last), 0.1, 0.01);
}

TEST(ByteStreamLink, BacklogCapRejectsExcess) {
  EventLoop loop;
  auto cfg = pipe_cfg(6);
  cfg.buffer_limit = 1000;
  ByteStreamLink pipe(loop, cfg);
  pipe.set_reader([](ConstBytes) {});
  ByteBuffer big(1500);
  EXPECT_EQ(pipe.write(big.span()), 1000u);
  EXPECT_EQ(pipe.stats().bytes_rejected, 500u);
}

// ---- Frame codec --------------------------------------------------------------------

TEST(FramingCodec, EncodeLayout) {
  auto payload = ByteBuffer::from_string("hi");
  ByteBuffer frame = FramedBytePath::encode_frame(payload.span());
  EXPECT_EQ(frame.size(), FramedBytePath::kHeaderSize + 2 + FramedBytePath::kTrailerSize);
  EXPECT_EQ(frame[0], 0x4E);
  EXPECT_EQ(frame[1], 0x47);
  EXPECT_EQ(frame[2], 0x00);
  EXPECT_EQ(frame[3], 0x02);
}

TEST(Framing, RoundTripOverCleanPipe) {
  EventLoop loop;
  ByteStreamLink pipe(loop, pipe_cfg(8));
  FramedBytePath path(pipe);
  std::vector<ByteBuffer> got;
  path.set_handler([&](ConstBytes f) { got.emplace_back(f); });

  Rng rng(2);
  std::vector<ByteBuffer> sent;
  for (std::size_t len : {1u, 100u, 1000u, 8000u}) {
    ByteBuffer f(len);
    rng.fill(f.span());
    sent.push_back(std::move(f));
    ASSERT_TRUE(path.send(sent.back().span()));
  }
  loop.run();
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], sent[i]) << i;
  EXPECT_EQ(path.stats().resync_slides, 0u);
}

TEST(Framing, OversizePayloadRejected) {
  EventLoop loop;
  ByteStreamLink pipe(loop, pipe_cfg(9));
  FramedBytePath path(pipe, /*max_payload=*/256);
  ByteBuffer big(257);
  EXPECT_FALSE(path.send(big.span()));
}

TEST(Framing, CorruptedFramesDroppedOthersSurvive) {
  EventLoop loop;
  auto cfg = pipe_cfg(10);
  cfg.bit_flip_rate = 0.0005;  // ~1 flip per 2000 bytes
  ByteStreamLink pipe(loop, cfg);
  FramedBytePath path(pipe);
  int got = 0;
  path.set_handler([&](ConstBytes) { ++got; });

  ByteBuffer f(1000);
  Rng rng(3);
  rng.fill(f.span());
  const int n = 200;
  for (int i = 0; i < n; ++i) path.send(f.span());
  loop.run();
  // ~40% of 1 KB frames take at least one flip; the rest must arrive.
  EXPECT_GT(got, n / 3);
  EXPECT_LT(got, n);
  EXPECT_GT(path.stats().crc_rejects + path.stats().header_rejects, 0u);
}

TEST(Framing, ResynchronizesAfterByteDeletion) {
  EventLoop loop;
  auto cfg = pipe_cfg(11);
  cfg.byte_loss_rate = 0.0002;  // occasional deleted byte shears a frame
  ByteStreamLink pipe(loop, cfg);
  FramedBytePath path(pipe);
  int got = 0;
  path.set_handler([&](ConstBytes) { ++got; });
  ByteBuffer f(500);
  Rng rng(4);
  rng.fill(f.span());
  const int n = 300;
  for (int i = 0; i < n; ++i) path.send(f.span());
  loop.run();
  // Deletions destroy some frames but the hunt realigns on later magics.
  EXPECT_GT(got, n / 2);
  EXPECT_GT(path.stats().resync_slides, 0u);
}

TEST(Framing, GarbagePrefixSkipped) {
  EventLoop loop;
  ByteStreamLink pipe(loop, pipe_cfg(12));
  FramedBytePath path(pipe);
  ByteBuffer got;
  path.set_handler([&](ConstBytes f) { got = ByteBuffer(f); });

  // Write junk straight into the pipe, then a real frame.
  auto junk = ByteBuffer::from_string("!!!! noise NG fake !!!!");
  pipe.write(junk.span());
  auto payload = ByteBuffer::from_string("real frame");
  ByteBuffer frame = FramedBytePath::encode_frame(payload.span());
  pipe.write(frame.span());
  loop.run();
  EXPECT_EQ(got, payload);
  EXPECT_GT(path.stats().resync_slides, 0u);
}

TEST(Framing, PayloadContainingMagicDoesNotConfuse) {
  EventLoop loop;
  ByteStreamLink pipe(loop, pipe_cfg(13));
  FramedBytePath path(pipe);
  std::vector<ByteBuffer> got;
  path.set_handler([&](ConstBytes f) { got.emplace_back(f); });

  // Payload stuffed with magic patterns.
  ByteBuffer tricky(600);
  for (std::size_t i = 0; i + 1 < tricky.size(); i += 2) {
    tricky[i] = 0x4E;
    tricky[i + 1] = 0x47;
  }
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(path.send(tricky.span()));
  loop.run();
  ASSERT_EQ(got.size(), 5u);
  for (const auto& g : got) EXPECT_EQ(g, tricky);
}

// ---- The suite over framing-free fiber ------------------------------------------------

TEST(Framing, AlfRunsOverUnframedFiber) {
  // The full claim: ALF endpoints, unchanged, over a WDM-style byte pipe
  // with corruption, recovering via NACK.
  EventLoop loop;
  auto fwd_cfg = pipe_cfg(14);
  fwd_cfg.bit_flip_rate = 0.00005;
  ByteStreamLink fwd(loop, fwd_cfg);
  ByteStreamLink rev(loop, pipe_cfg(15));
  FramedBytePath data(fwd, 4096);
  FramedBytePath feedback(rev, 4096);

  alf::SessionConfig scfg;
  scfg.nack_delay = 10 * kMillisecond;
  alf::AlfSender sender(loop, data, feedback, scfg);
  alf::AlfReceiver receiver(loop, data, feedback, scfg);

  std::map<std::uint64_t, ByteBuffer> source;
  std::size_t delivered = 0;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 30; ++i) {
    ByteBuffer b(5000);
    rng.fill(b.span());
    source.emplace(i, std::move(b));
  }
  receiver.set_on_adu([&](Adu&& a) {
    EXPECT_EQ(a.payload, source.at(a.name.a));
    ++delivered;
  });
  for (std::uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(sender.send_adu(generic_name(i), source.at(i).span()).ok());
  }
  sender.finish();
  loop.run();
  EXPECT_EQ(delivered, 30u);
}

TEST(Framing, TeardownClearsTheReaderOnThePipe) {
  // The path's reader on the pipe closes over the path: a chunk the pipe
  // delivers after the path is destroyed must drop, not reach freed memory.
  EventLoop loop;
  ByteStreamLink pipe(loop, ByteStreamConfig{});
  int delivered = 0;
  {
    auto path = std::make_unique<FramedBytePath>(pipe);
    path->set_handler([&](ConstBytes) { ++delivered; });
    const ByteBuffer frame(300);
    ASSERT_TRUE(path->send(frame.span()));
  }
  loop.run();
  EXPECT_EQ(pipe.stats().bytes_delivered,
            FramedBytePath::kHeaderSize + 300 + FramedBytePath::kTrailerSize);
  EXPECT_EQ(delivered, 0);
}

}  // namespace
}  // namespace ngp
