#include "alf/wire.h"

#include <algorithm>

#include "simd/dispatch.h"

namespace ngp::alf {

namespace {

/// Writes the common 4-byte prologue.
void write_prologue(WireWriter& w, MessageType type, std::uint16_t session) {
  w.u8(kMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(session);
}

/// Writes the checksum of everything written so far into `frame`.
void seal_header(WireWriter& w, MutableBytes frame) {
  w.u16(simd::kernels().internet_checksum(frame.first(w.written())));
}

/// Verifies a sealed header region [0, len); len includes the checksum.
bool header_ok(ConstBytes frame, std::size_t len) {
  if (frame.size() < len) return false;
  // Sum over the sealed region including the stored complemented checksum
  // folds to 0xFFFF <=> intact, i.e. the complemented checksum of the
  // region is 0. Region length is even by construction.
  return simd::kernels().internet_checksum(frame.subspan(0, len)) == 0;
}

}  // namespace

std::size_t encode_fragment_into(const DataFragment& f, MutableBytes out) {
  const std::size_t len = DataFragment::kHeaderSize + f.payload.size();
  if (out.size() < len) return 0;
  WireWriter w(out);
  write_prologue(w, MessageType::kData, f.session);
  w.u32(f.adu_id);
  w.u8(static_cast<std::uint8_t>(f.name.ns));
  w.u64(f.name.a);
  w.u64(f.name.b);
  w.u64(f.name.c);
  w.u8(static_cast<std::uint8_t>(f.syntax));
  w.u8(f.flags);
  w.u8(static_cast<std::uint8_t>(f.checksum_kind));
  w.u8(f.fec_k);
  w.u8(f.epoch);  // recovery epoch (also pads the sealed header even)
  w.u32(f.adu_len);
  w.u32(f.frag_off);
  w.u16(static_cast<std::uint16_t>(f.payload.size()));
  w.u32(f.adu_checksum);
  seal_header(w, out);  // one checksum call over bytes 0-51
  w.bytes(f.payload);
  return len;
}

ByteBuffer encode_fragment(const DataFragment& f) {
  ByteBuffer out(DataFragment::kHeaderSize + f.payload.size());
  encode_fragment_into(f, out.span());
  return out;
}

ByteBuffer encode_nack(const NackMessage& m) {
  ByteBuffer out(4 + 2 + 4 * m.adu_ids.size() + 2);
  WireWriter w(out.span());
  write_prologue(w, MessageType::kNack, m.session);
  w.u16(static_cast<std::uint16_t>(m.adu_ids.size()));
  for (std::uint32_t id : m.adu_ids) w.u32(id);
  seal_header(w, out.span());
  return out;
}

ByteBuffer encode_progress(const ProgressMessage& m) {
  ByteBuffer out(4 + 14 + 2);
  WireWriter w(out.span());
  write_prologue(w, MessageType::kProgress, m.session);
  w.u32(m.complete_adus);
  w.u32(m.highest_adu_seen);
  w.u32(m.consume_rate_kbps);
  w.u16(m.session_complete ? 1 : 0);
  seal_header(w, out.span());
  return out;
}

ByteBuffer encode_done(const DoneMessage& m) {
  ByteBuffer out(4 + 4 + 2);
  WireWriter w(out.span());
  write_prologue(w, MessageType::kDone, m.session);
  w.u32(m.total_adus);
  seal_header(w, out.span());
  return out;
}

ByteBuffer encode_resume(const ResumeMessage& m) {
  // The bitmap travels inside the sealed (checksummed) region, so it is
  // padded to an even length; trailing pad bits read as "not closed".
  const std::size_t held = std::min(m.bitmap.size(), ResumeMessage::kMaxBitmapBytes);
  const std::size_t n = held + (held & 1);
  ByteBuffer out(4 + 8 + n + 2);
  WireWriter w(out.span());
  write_prologue(w, MessageType::kResume, m.session);
  w.u8(m.epoch);
  w.u8(0);  // pad: keeps the sealed region even with an even bitmap
  w.u32(m.closed_prefix);
  w.u16(static_cast<std::uint16_t>(n));
  w.bytes({m.bitmap.data(), held});
  if (held & 1) w.u8(0);
  seal_header(w, out.span());
  return out;
}

ByteBuffer encode_probe(const ProbeMessage& m) {
  ByteBuffer out(4 + 6 + 2);
  WireWriter w(out.span());
  write_prologue(w, MessageType::kProbe, m.session);
  w.u8(m.epoch);
  w.u8(0);  // pad (even sealed region)
  w.u32(m.seq);
  seal_header(w, out.span());
  return out;
}

std::optional<Message> decode_message(ConstBytes frame) {
  if (frame.size() < 4 || frame[0] != kMagic) return std::nullopt;
  const auto type_byte = frame[1];
  if (type_byte > static_cast<std::uint8_t>(MessageType::kProbe)) return std::nullopt;

  Message msg;
  msg.type = static_cast<MessageType>(type_byte);
  WireReader r(frame);
  std::uint8_t magic = 0, type = 0;
  std::uint16_t session = 0;
  (void)r.u8(magic);
  (void)r.u8(type);
  (void)r.u16(session);

  switch (msg.type) {
    case MessageType::kData: {
      if (!header_ok(frame, DataFragment::kHeaderSize)) return std::nullopt;
      DataFragment& f = msg.data;
      f.session = session;
      std::uint8_t ns = 0, syntax = 0, ck_kind = 0;
      std::uint16_t frag_len = 0, header_ck = 0;
      if (!r.u32(f.adu_id) || !r.u8(ns) || !r.u64(f.name.a) || !r.u64(f.name.b) ||
          !r.u64(f.name.c) || !r.u8(syntax) || !r.u8(f.flags) || !r.u8(ck_kind) ||
          !r.u8(f.fec_k) || !r.u8(f.epoch) || !r.u32(f.adu_len) ||
          !r.u32(f.frag_off) || !r.u16(frag_len) || !r.u32(f.adu_checksum) ||
          !r.u16(header_ck)) {
        return std::nullopt;
      }
      if (ns > static_cast<std::uint8_t>(NameSpace::kRpcArg)) return std::nullopt;
      if (syntax > static_cast<std::uint8_t>(TransferSyntax::kBerToolkit)) {
        return std::nullopt;
      }
      if (ck_kind > static_cast<std::uint8_t>(ChecksumKind::kCrc32)) return std::nullopt;
      f.name.ns = static_cast<NameSpace>(ns);
      f.syntax = static_cast<TransferSyntax>(syntax);
      f.checksum_kind = static_cast<ChecksumKind>(ck_kind);
      if (r.remaining() != frag_len) return std::nullopt;
      if (!r.bytes(frag_len, f.payload)) return std::nullopt;
      // Fragment must lie within the ADU.
      if (std::uint64_t{f.frag_off} + frag_len > f.adu_len) return std::nullopt;
      return msg;
    }
    case MessageType::kNack: {
      std::uint16_t count = 0;
      if (!r.u16(count)) return std::nullopt;
      if (count > NackMessage::kMaxIds) return std::nullopt;
      // Length check BEFORE any allocation: a forged count in a truncated
      // frame must be rejected without sizing a vector to it.
      if (std::size_t{count} * 4 + 2 > r.remaining()) return std::nullopt;
      const std::size_t sealed = 4 + 2 + std::size_t{count} * 4 + 2;
      if (!header_ok(frame, sealed)) return std::nullopt;
      msg.nack.session = session;
      msg.nack.adu_ids.resize(count);
      for (auto& id : msg.nack.adu_ids) {
        if (!r.u32(id)) return std::nullopt;
      }
      return msg;
    }
    case MessageType::kProgress: {
      if (!header_ok(frame, 4 + 14 + 2)) return std::nullopt;
      msg.progress.session = session;
      std::uint16_t complete_flag = 0;
      if (!r.u32(msg.progress.complete_adus) || !r.u32(msg.progress.highest_adu_seen) ||
          !r.u32(msg.progress.consume_rate_kbps) || !r.u16(complete_flag)) {
        return std::nullopt;
      }
      msg.progress.session_complete = complete_flag != 0;
      return msg;
    }
    case MessageType::kDone: {
      if (!header_ok(frame, 4 + 4 + 2)) return std::nullopt;
      msg.done.session = session;
      if (!r.u32(msg.done.total_adus)) return std::nullopt;
      return msg;
    }
    case MessageType::kResume: {
      std::uint8_t pad = 0;
      std::uint16_t bitmap_len = 0;
      if (!r.u8(msg.resume.epoch) || !r.u8(pad) ||
          !r.u32(msg.resume.closed_prefix) || !r.u16(bitmap_len)) {
        return std::nullopt;
      }
      if (bitmap_len > ResumeMessage::kMaxBitmapBytes || (bitmap_len & 1)) {
        return std::nullopt;
      }
      // Same forged-length guard as NACK: reject before sizing the bitmap.
      if (std::size_t{bitmap_len} + 2 > r.remaining()) return std::nullopt;
      const std::size_t sealed = 4 + 8 + bitmap_len + 2;
      if (!header_ok(frame, sealed)) return std::nullopt;
      msg.resume.session = session;
      msg.resume.bitmap.resize(bitmap_len);
      for (auto& b : msg.resume.bitmap) {
        if (!r.u8(b)) return std::nullopt;
      }
      return msg;
    }
    case MessageType::kProbe: {
      if (!header_ok(frame, 4 + 6 + 2)) return std::nullopt;
      std::uint8_t pad = 0;
      msg.probe.session = session;
      if (!r.u8(msg.probe.epoch) || !r.u8(pad) || !r.u32(msg.probe.seq)) {
        return std::nullopt;
      }
      return msg;
    }
  }
  return std::nullopt;
}

namespace {

/// The fixed prefix every ALF frame shares: magic(1) type(1) session(2).
struct FramePrefix {
  MessageType type;
  std::uint16_t session;
};

/// The one bounds-checked prefix read all peeks go through. Accepts any
/// frame whose magic and type byte are recognisable; peeks never verify
/// the header checksum (demux must be cheaper than validation — the
/// owning endpoint still rejects damaged frames).
std::optional<FramePrefix> peek_prefix(ConstBytes frame) noexcept {
  if (frame.size() < 4 || frame[0] != kMagic ||
      frame[1] > static_cast<std::uint8_t>(MessageType::kProbe)) {
    return std::nullopt;
  }
  return FramePrefix{
      static_cast<MessageType>(frame[1]),
      static_cast<std::uint16_t>((std::uint16_t{frame[2]} << 8) | frame[3])};
}

}  // namespace

std::optional<MessageType> peek_message_type(ConstBytes frame) noexcept {
  const auto prefix = peek_prefix(frame);
  if (!prefix) return std::nullopt;
  return prefix->type;
}

std::optional<std::uint16_t> peek_flow_id(ConstBytes frame) noexcept {
  const auto prefix = peek_prefix(frame);
  if (!prefix) return std::nullopt;
  return prefix->session;
}

std::uint64_t peek_flight_tag(ConstBytes frame) noexcept {
  // Only DATA frames carry a per-ADU flow; everything else tags as 0.
  const auto prefix = peek_prefix(frame);
  if (!prefix || prefix->type != MessageType::kData || frame.size() < 8) {
    return 0;
  }
  const std::uint32_t adu_id = (std::uint32_t{frame[4]} << 24) |
                               (std::uint32_t{frame[5]} << 16) |
                               (std::uint32_t{frame[6]} << 8) | frame[7];
  return (std::uint64_t{prefix->session} << 32) | adu_id;
}

}  // namespace ngp::alf
