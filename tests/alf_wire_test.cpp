// Tests for src/alf/wire: fragment/NACK/PROGRESS/DONE/RESUME/PROBE codecs,
// header integrity, the self-describing-fragment invariants, and the sized
// encoders' byte-identity with the byte-at-a-time ones they replaced.
#include <gtest/gtest.h>

#include <algorithm>

#include "alf/wire.h"
#include "checksum/internet.h"
#include "util/rng.h"

namespace ngp::alf {
namespace {

DataFragment sample_fragment(ConstBytes payload) {
  DataFragment f;
  f.session = 7;
  f.adu_id = 42;
  f.name = VideoRegionName{3, 4, 5, 1234}.to_name();
  f.syntax = TransferSyntax::kXdr;
  f.flags = kFlagEncrypted;
  f.checksum_kind = ChecksumKind::kCrc32;
  f.adu_len = static_cast<std::uint32_t>(payload.size() * 3);  // part of a larger ADU
  f.frag_off = static_cast<std::uint32_t>(payload.size());
  f.adu_checksum = 0xDEADBEEF;
  f.payload = payload;
  return f;
}

TEST(AlfWire, FragmentRoundTrip) {
  auto payload = ByteBuffer::from_string("fragment payload");
  DataFragment f = sample_fragment(payload.span());
  ByteBuffer frame = encode_fragment(f);
  EXPECT_EQ(frame.size(), DataFragment::kHeaderSize + payload.size());

  auto msg = decode_message(frame.span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kData);
  const DataFragment& g = msg->data;
  EXPECT_EQ(g.session, 7);
  EXPECT_EQ(g.adu_id, 42u);
  EXPECT_EQ(g.name, f.name);
  EXPECT_EQ(g.syntax, TransferSyntax::kXdr);
  EXPECT_EQ(g.flags, kFlagEncrypted);
  EXPECT_EQ(g.checksum_kind, ChecksumKind::kCrc32);
  EXPECT_EQ(g.adu_len, f.adu_len);
  EXPECT_EQ(g.frag_off, f.frag_off);
  EXPECT_EQ(g.adu_checksum, 0xDEADBEEFu);
  EXPECT_EQ(ByteBuffer(g.payload), payload);
}

TEST(AlfWire, FragmentNamePreservedForAllNamespaces) {
  auto payload = ByteBuffer::from_string("x");
  const AduName names[] = {
      generic_name(0xFFFFFFFFFFFFFFFFull),
      FileRegionName{1ull << 40, 65536}.to_name(),
      VideoRegionName{9999, 65535, 65535, 0xFFFFFFFF}.to_name(),
      RpcArgName{123456789, 42}.to_name(),
  };
  for (const auto& name : names) {
    DataFragment f = sample_fragment(payload.span());
    f.name = name;
    auto msg = decode_message(encode_fragment(f).span());
    ASSERT_TRUE(msg.has_value()) << name.to_string();
    EXPECT_EQ(msg->data.name, name) << name.to_string();
  }
}

TEST(AlfWire, HeaderCorruptionDetectedEverywhere) {
  auto payload = ByteBuffer::from_string("payload");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  int rejected = 0;
  for (std::size_t i = 0; i < DataFragment::kHeaderSize; ++i) {
    ByteBuffer bad(frame.span());
    bad[i] ^= 0x04;
    if (!decode_message(bad.span()).has_value()) ++rejected;
  }
  // Every single-bit header flip must be rejected (magic/type flips fail
  // structurally; the rest fail the header checksum).
  EXPECT_EQ(rejected, static_cast<int>(DataFragment::kHeaderSize));
}

TEST(AlfWire, PayloadCorruptionIsNotTheHeadersJob) {
  // Fragment payload damage is caught by the per-ADU checksum (stage 2),
  // not the header checksum — the frame still parses.
  auto payload = ByteBuffer::from_string("payload");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  frame[DataFragment::kHeaderSize + 2] ^= 0xFF;
  EXPECT_TRUE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, FragmentBeyondAduRejected) {
  auto payload = ByteBuffer::from_string("12345678");
  DataFragment f = sample_fragment(payload.span());
  f.adu_len = 4;  // fragment would overrun the ADU
  f.frag_off = 0;
  EXPECT_FALSE(decode_message(encode_fragment(f).span()).has_value());
}

TEST(AlfWire, TruncatedFrameRejected) {
  auto payload = ByteBuffer::from_string("payload");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{10}, DataFragment::kHeaderSize - 1,
        frame.size() - 1}) {
    EXPECT_FALSE(decode_message(frame.span().subspan(0, keep)).has_value()) << keep;
  }
}

TEST(AlfWire, BadMagicRejected) {
  auto payload = ByteBuffer::from_string("p");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  frame[0] = 0x42;
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, UnknownEnumValuesRejected) {
  auto payload = ByteBuffer::from_string("p");
  DataFragment f = sample_fragment(payload.span());
  ByteBuffer frame = encode_fragment(f);
  // Patch the syntax byte (offset 33) to an invalid value and re-seal the
  // header so only the enum check can reject it.
  frame[33] = 99;
  // Recompute header checksum.
  frame[DataFragment::kHeaderSize - 2] = 0;
  frame[DataFragment::kHeaderSize - 1] = 0;
  const auto ck =
      internet_checksum_unrolled(frame.span().subspan(0, DataFragment::kHeaderSize - 2));
  frame[DataFragment::kHeaderSize - 2] = static_cast<std::uint8_t>(ck >> 8);
  frame[DataFragment::kHeaderSize - 1] = static_cast<std::uint8_t>(ck);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

// The one direction map every demux asks: the receiver's three reports
// travel to the sender; data, completion and probes do not.
TEST(AlfWire, FeedbackDirectionOfEveryMessageType) {
  EXPECT_FALSE(is_feedback(MessageType::kData));
  EXPECT_TRUE(is_feedback(MessageType::kNack));
  EXPECT_TRUE(is_feedback(MessageType::kProgress));
  EXPECT_FALSE(is_feedback(MessageType::kDone));
  EXPECT_TRUE(is_feedback(MessageType::kResume));
  EXPECT_FALSE(is_feedback(MessageType::kProbe));
  // Those six are every type a frame can carry: the prefix peek rejects
  // the next value.
  const std::uint8_t beyond[4] = {
      kMagic, static_cast<std::uint8_t>(MessageType::kProbe) + 1, 0, 7};
  EXPECT_FALSE(peek_message_type(ConstBytes{beyond, 4}).has_value());
}

TEST(AlfWire, NackRoundTrip) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {1, 5, 9, 0xFFFFFFFF};
  auto msg = decode_message(encode_nack(m).span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kNack);
  EXPECT_EQ(msg->nack.session, 3);
  EXPECT_EQ(msg->nack.adu_ids, m.adu_ids);
}

TEST(AlfWire, EmptyNackRoundTrip) {
  NackMessage m;
  m.session = 1;
  auto msg = decode_message(encode_nack(m).span());
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->nack.adu_ids.empty());
}

TEST(AlfWire, MaxSizeNackRoundTrip) {
  NackMessage m;
  m.session = 0xFFFF;
  for (std::uint32_t i = 0; i < NackMessage::kMaxIds; ++i) {
    m.adu_ids.push_back(0xFFFFFFFFu - i * 977);
  }
  auto msg = decode_message(encode_nack(m).span());
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->nack.session, 0xFFFF);
  EXPECT_EQ(msg->nack.adu_ids, m.adu_ids);
}

TEST(AlfWire, NackCorruptionRejected) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {10, 20};
  ByteBuffer frame = encode_nack(m);
  frame[7] ^= 0x01;  // inside an id
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, ForgedNackCountRejected) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {1, 2};
  ByteBuffer frame = encode_nack(m);
  // Patch the count field (bytes 4..5) to claim kMaxIds ids in a frame
  // that carries two: the decoder must reject on the remaining-length
  // check, before sizing any vector to the forged count.
  frame[4] = static_cast<std::uint8_t>(NackMessage::kMaxIds >> 8);
  frame[5] = static_cast<std::uint8_t>(NackMessage::kMaxIds & 0xFF);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, OverMaxNackCountRejected) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {1};
  ByteBuffer frame = encode_nack(m);
  const std::uint16_t over = NackMessage::kMaxIds + 1;
  frame[4] = static_cast<std::uint8_t>(over >> 8);
  frame[5] = static_cast<std::uint8_t>(over & 0xFF);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, TruncatedNackRejected) {
  NackMessage m;
  m.session = 1;
  for (std::uint32_t i = 0; i < NackMessage::kMaxIds; ++i) m.adu_ids.push_back(i);
  ByteBuffer frame = encode_nack(m);
  for (std::size_t keep : {frame.size() - 1, frame.size() / 2, std::size_t{6}}) {
    EXPECT_FALSE(decode_message(frame.span().subspan(0, keep)).has_value()) << keep;
  }
}

TEST(AlfWire, ForgedResumeBitmapLenRejected) {
  ResumeMessage m;
  m.session = 5;
  m.epoch = 1;
  m.closed_prefix = 10;
  m.bitmap = {0xAB, 0xCD};
  ByteBuffer frame = encode_resume(m);
  // bitmap_len lives at bytes 10..11 (prologue 4 + epoch + pad +
  // closed_prefix). Claim the maximum in a frame that carries two bytes.
  const auto forged = static_cast<std::uint16_t>(ResumeMessage::kMaxBitmapBytes);
  frame[10] = static_cast<std::uint8_t>(forged >> 8);
  frame[11] = static_cast<std::uint8_t>(forged & 0xFF);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, ProgressRoundTrip) {
  for (bool complete : {false, true}) {
    ProgressMessage m;
    m.session = 9;
    m.complete_adus = 100;
    m.highest_adu_seen = 120;
    m.consume_rate_kbps = 45000;
    m.session_complete = complete;
    auto msg = decode_message(encode_progress(m).span());
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MessageType::kProgress);
    EXPECT_EQ(msg->progress.complete_adus, 100u);
    EXPECT_EQ(msg->progress.highest_adu_seen, 120u);
    EXPECT_EQ(msg->progress.consume_rate_kbps, 45000u);
    EXPECT_EQ(msg->progress.session_complete, complete);
  }
}

TEST(AlfWire, DoneRoundTrip) {
  DoneMessage m;
  m.session = 2;
  m.total_adus = 77;
  auto msg = decode_message(encode_done(m).span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kDone);
  EXPECT_EQ(msg->done.session, 2);
  EXPECT_EQ(msg->done.total_adus, 77u);
}

// ---- Reference encoders --------------------------------------------------------
//
// The byte-at-a-time encoders that the sized ones replaced, kept as the
// oracle: every frame must stay byte-identical. They append through their
// own writer, so they share no code with the encoders under test.

/// Appends big-endian fields to a growing buffer, one byte at a time.
struct Appender {
  ByteBuffer& out;
  void u8(std::uint8_t v) { out.append(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
};

void ref_prologue(Appender& w, MessageType type, std::uint16_t session) {
  w.u8(kMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(session);
}

void ref_seal(ByteBuffer& out) {
  const std::uint16_t ck = internet_checksum_unrolled(out.span());
  out.append(static_cast<std::uint8_t>(ck >> 8));
  out.append(static_cast<std::uint8_t>(ck));
}

ByteBuffer ref_fragment(const DataFragment& f) {
  ByteBuffer out;
  Appender w{out};
  ref_prologue(w, MessageType::kData, f.session);
  w.u32(f.adu_id);
  w.u8(static_cast<std::uint8_t>(f.name.ns));
  w.u64(f.name.a);
  w.u64(f.name.b);
  w.u64(f.name.c);
  w.u8(static_cast<std::uint8_t>(f.syntax));
  w.u8(f.flags);
  w.u8(static_cast<std::uint8_t>(f.checksum_kind));
  w.u8(f.fec_k);
  w.u8(f.epoch);
  w.u32(f.adu_len);
  w.u32(f.frag_off);
  w.u16(static_cast<std::uint16_t>(f.payload.size()));
  w.u32(f.adu_checksum);
  ref_seal(out);
  out.append(f.payload);
  return out;
}

ByteBuffer ref_nack(const NackMessage& m) {
  ByteBuffer out;
  Appender w{out};
  ref_prologue(w, MessageType::kNack, m.session);
  w.u16(static_cast<std::uint16_t>(m.adu_ids.size()));
  for (std::uint32_t id : m.adu_ids) w.u32(id);
  ref_seal(out);
  return out;
}

ByteBuffer ref_progress(const ProgressMessage& m) {
  ByteBuffer out;
  Appender w{out};
  ref_prologue(w, MessageType::kProgress, m.session);
  w.u32(m.complete_adus);
  w.u32(m.highest_adu_seen);
  w.u32(m.consume_rate_kbps);
  w.u16(m.session_complete ? 1 : 0);
  ref_seal(out);
  return out;
}

ByteBuffer ref_done(const DoneMessage& m) {
  ByteBuffer out;
  Appender w{out};
  ref_prologue(w, MessageType::kDone, m.session);
  w.u32(m.total_adus);
  ref_seal(out);
  return out;
}

ByteBuffer ref_resume(const ResumeMessage& m) {
  ByteBuffer out;
  Appender w{out};
  ref_prologue(w, MessageType::kResume, m.session);
  w.u8(m.epoch);
  w.u8(0);
  w.u32(m.closed_prefix);
  std::size_t n = std::min(m.bitmap.size(), ResumeMessage::kMaxBitmapBytes);
  n += n & 1;
  w.u16(static_cast<std::uint16_t>(n));
  for (std::size_t i = 0; i < n; ++i) w.u8(i < m.bitmap.size() ? m.bitmap[i] : 0);
  ref_seal(out);
  return out;
}

ByteBuffer ref_probe(const ProbeMessage& m) {
  ByteBuffer out;
  Appender w{out};
  ref_prologue(w, MessageType::kProbe, m.session);
  w.u8(m.epoch);
  w.u8(0);
  w.u32(m.seq);
  ref_seal(out);
  return out;
}

/// One of a field's extremes, or a random value, with equal odds.
template <typename T>
T extreme_or_random(Rng& rng) {
  switch (rng.uniform(3)) {
    case 0:
      return T{0};
    case 1:
      return static_cast<T>(~T{0});
    default:
      return static_cast<T>(rng.next());
  }
}

DataFragment random_fragment(Rng& rng, ByteBuffer& payload) {
  constexpr std::size_t kMaxPayload = 1446;  // a 1500-byte MTU's capacity
  const std::size_t sizes[] = {0, kMaxPayload,
                               static_cast<std::size_t>(rng.uniform(kMaxPayload + 1))};
  payload.resize(sizes[rng.uniform(3)]);
  rng.fill(payload.span());
  DataFragment f;
  f.session = extreme_or_random<std::uint16_t>(rng);
  f.epoch = extreme_or_random<std::uint8_t>(rng);
  f.adu_id = extreme_or_random<std::uint32_t>(rng);
  f.name.ns = static_cast<NameSpace>(
      rng.uniform(static_cast<std::uint64_t>(NameSpace::kRpcArg) + 1));
  f.name.a = extreme_or_random<std::uint64_t>(rng);
  f.name.b = extreme_or_random<std::uint64_t>(rng);
  f.name.c = extreme_or_random<std::uint64_t>(rng);
  f.syntax = static_cast<TransferSyntax>(
      rng.uniform(static_cast<std::uint64_t>(TransferSyntax::kBerToolkit) + 1));
  f.flags = static_cast<std::uint8_t>(
      (extreme_or_random<std::uint8_t>(rng) & ~kFlagFecParity) |
      (rng.uniform(2) != 0 ? kFlagFecParity : 0));
  f.checksum_kind = static_cast<ChecksumKind>(
      rng.uniform(static_cast<std::uint64_t>(ChecksumKind::kCrc32) + 1));
  f.fec_k = extreme_or_random<std::uint8_t>(rng);
  f.adu_len = extreme_or_random<std::uint32_t>(rng);
  f.frag_off = extreme_or_random<std::uint32_t>(rng);
  f.adu_checksum = extreme_or_random<std::uint32_t>(rng);
  f.payload = payload.span();
  return f;
}

TEST(AlfWireInPlace, FragmentIntoMatchesTheReferenceEncoder) {
  // Every field at its extremes or random, payloads of 0-1,446 bytes, the
  // parity flag set and clear: the frame written in place is the
  // reference encoder's, and nothing past its end is touched.
  Rng rng(2026);
  ByteBuffer payload;
  int parity = 0;
  for (int i = 0; i < 3000; ++i) {
    const DataFragment f = random_fragment(rng, payload);
    parity += f.is_parity();
    const ByteBuffer want = ref_fragment(f);
    ByteBuffer out(DataFragment::kHeaderSize + 1446 + 8);
    std::fill(out.data(), out.data() + out.size(), std::uint8_t{0xA5});
    const std::size_t n = encode_fragment_into(f, out.span());
    ASSERT_EQ(n, want.size()) << i;
    ASSERT_EQ(ByteBuffer(out.subspan(0, n)), want) << i;
    ASSERT_TRUE(std::all_of(out.data() + n, out.data() + out.size(),
                            [](std::uint8_t b) { return b == 0xA5; }))
        << i;
    ASSERT_EQ(encode_fragment(f), want) << i;
  }
  EXPECT_GT(parity, 1000);
  EXPECT_LT(parity, 2000);
}

TEST(AlfWireInPlace, FragmentIntoRejectsAShortSpan) {
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{1446}}) {
    SCOPED_TRACE(len);
    ByteBuffer payload(len);
    DataFragment f = sample_fragment(payload.span());
    const std::size_t need = DataFragment::kHeaderSize + len;
    ByteBuffer out(need);
    std::fill(out.data(), out.data() + out.size(), std::uint8_t{0xA5});
    EXPECT_EQ(encode_fragment_into(f, out.span().subspan(0, need - 1)), 0u);
    EXPECT_TRUE(std::all_of(out.data(), out.data() + out.size(),
                            [](std::uint8_t b) { return b == 0xA5; }));
    EXPECT_EQ(encode_fragment_into(f, MutableBytes{}), 0u);
    EXPECT_EQ(encode_fragment_into(f, out.span()), need);
    EXPECT_EQ(out, ref_fragment(f));
  }
}

TEST(AlfWireInPlace, ControlFramesMatchTheReferenceEncoders) {
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    SCOPED_TRACE(i);
    NackMessage nack;
    nack.session = extreme_or_random<std::uint16_t>(rng);
    nack.adu_ids.resize(i == 0 ? NackMessage::kMaxIds
                               : rng.uniform(NackMessage::kMaxIds + 1));
    for (auto& id : nack.adu_ids) id = extreme_or_random<std::uint32_t>(rng);
    ASSERT_EQ(encode_nack(nack), ref_nack(nack));

    ProgressMessage progress;
    progress.session = extreme_or_random<std::uint16_t>(rng);
    progress.complete_adus = extreme_or_random<std::uint32_t>(rng);
    progress.highest_adu_seen = extreme_or_random<std::uint32_t>(rng);
    progress.consume_rate_kbps = extreme_or_random<std::uint32_t>(rng);
    progress.session_complete = rng.uniform(2) != 0;
    ASSERT_EQ(encode_progress(progress), ref_progress(progress));

    DoneMessage done;
    done.session = extreme_or_random<std::uint16_t>(rng);
    done.total_adus = extreme_or_random<std::uint32_t>(rng);
    ASSERT_EQ(encode_done(done), ref_done(done));

    // Bitmaps past the 1,024-byte cap are clamped; odd lengths are padded.
    ResumeMessage resume;
    resume.session = extreme_or_random<std::uint16_t>(rng);
    resume.epoch = extreme_or_random<std::uint8_t>(rng);
    resume.closed_prefix = extreme_or_random<std::uint32_t>(rng);
    const std::size_t sizes[] = {0, 1, ResumeMessage::kMaxBitmapBytes - 1,
                                 ResumeMessage::kMaxBitmapBytes,
                                 ResumeMessage::kMaxBitmapBytes + 1,
                                 static_cast<std::size_t>(rng.uniform(1400))};
    resume.bitmap.resize(sizes[i % 6]);
    for (auto& b : resume.bitmap) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(encode_resume(resume), ref_resume(resume));

    ProbeMessage probe;
    probe.session = extreme_or_random<std::uint16_t>(rng);
    probe.epoch = extreme_or_random<std::uint8_t>(rng);
    probe.seq = extreme_or_random<std::uint32_t>(rng);
    ASSERT_EQ(encode_probe(probe), ref_probe(probe));
  }
}

TEST(AlfWireInPlace, LargestResumeAndProbeRoundTrip) {
  // The largest NACK round-trips in MaxSizeNackRoundTrip.
  ResumeMessage resume;
  resume.session = 0xFFFF;
  resume.epoch = 0xFF;
  resume.closed_prefix = 0xFFFFFFFF;
  resume.bitmap.resize(ResumeMessage::kMaxBitmapBytes);
  Rng rng(5);
  for (auto& b : resume.bitmap) b = static_cast<std::uint8_t>(rng.next());
  auto msg = decode_message(encode_resume(resume).span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kResume);
  EXPECT_EQ(msg->resume.session, 0xFFFF);
  EXPECT_EQ(msg->resume.epoch, 0xFF);
  EXPECT_EQ(msg->resume.closed_prefix, 0xFFFFFFFFu);
  EXPECT_EQ(msg->resume.bitmap, resume.bitmap);

  ProbeMessage probe;
  probe.session = 0xFFFF;
  probe.epoch = 0xFF;
  probe.seq = 0xFFFFFFFF;
  msg = decode_message(encode_probe(probe).span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kProbe);
  EXPECT_EQ(msg->probe.session, 0xFFFF);
  EXPECT_EQ(msg->probe.epoch, 0xFF);
  EXPECT_EQ(msg->probe.seq, 0xFFFFFFFFu);
}

TEST(AlfWire, PayloadCapacity) {
  EXPECT_EQ(fragment_payload_capacity(1500), 1500 - DataFragment::kHeaderSize);
  EXPECT_EQ(fragment_payload_capacity(DataFragment::kHeaderSize), 0u);
  EXPECT_EQ(fragment_payload_capacity(10), 0u);
}

TEST(AduNameTest, ToStringAllNamespaces) {
  EXPECT_EQ(generic_name(5).to_string(), "generic(5)");
  EXPECT_EQ((FileRegionName{100, 50}.to_name().to_string()), "file[100+50)");
  const auto video = VideoRegionName{1, 2, 3, 4}.to_name().to_string();
  EXPECT_NE(video.find("video"), std::string::npos);
  const auto rpc = RpcArgName{7, 1}.to_name().to_string();
  EXPECT_NE(rpc.find("rpc"), std::string::npos);
}

TEST(AduNameTest, TypedRoundTrips) {
  const FileRegionName f{123456789, 4096};
  const auto f2 = FileRegionName::from_name(f.to_name());
  EXPECT_EQ(f2.receiver_offset, f.receiver_offset);
  EXPECT_EQ(f2.length, f.length);

  const VideoRegionName v{10, 20, 30, 40};
  const auto v2 = VideoRegionName::from_name(v.to_name());
  EXPECT_EQ(v2.frame, 10u);
  EXPECT_EQ(v2.tile_x, 20u);
  EXPECT_EQ(v2.tile_y, 30u);
  EXPECT_EQ(v2.timestamp_ms, 40u);

  const RpcArgName r{555, 6};
  const auto r2 = RpcArgName::from_name(r.to_name());
  EXPECT_EQ(r2.call_id, 555u);
  EXPECT_EQ(r2.arg_index, 6u);
}

}  // namespace
}  // namespace ngp::alf
