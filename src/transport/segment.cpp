#include "transport/segment.h"

#include <cstring>

#include "simd/dispatch.h"

namespace ngp {

ByteBuffer encode_segment(const Segment& s) {
  ByteBuffer out(Segment::kHeaderSize + s.payload.size());
  WireWriter w(out.span());
  w.u8(static_cast<std::uint8_t>(s.type));
  w.u8(s.flags);
  w.u16(static_cast<std::uint16_t>(s.payload.size()));
  w.u64(s.seq);
  w.u64(s.ack);
  w.u32(s.window);
  w.u16(0);  // checksum placeholder
  w.bytes(s.payload);

  const std::uint16_t ck = simd::kernels().internet_checksum(out.span());
  out[Segment::kHeaderSize - 2] = static_cast<std::uint8_t>(ck >> 8);
  out[Segment::kHeaderSize - 1] = static_cast<std::uint8_t>(ck);
  return out;
}

std::optional<Segment> decode_segment(ConstBytes frame) {
  if (frame.size() < Segment::kHeaderSize) return std::nullopt;

  WireReader r(frame);
  Segment s;
  std::uint8_t type = 0;
  std::uint16_t len = 0;
  std::uint16_t stored_ck = 0;
  if (!r.u8(type) || !r.u8(s.flags) || !r.u16(len) || !r.u64(s.seq) || !r.u64(s.ack) ||
      !r.u32(s.window) || !r.u16(stored_ck)) {
    return std::nullopt;
  }
  if (type > static_cast<std::uint8_t>(SegmentType::kAck)) return std::nullopt;
  s.type = static_cast<SegmentType>(type);
  if (r.remaining() != len) return std::nullopt;
  if (!r.bytes(len, s.payload)) return std::nullopt;

  // Verify: recompute with the checksum field zeroed.
  ByteBuffer scratch(frame);
  scratch[Segment::kHeaderSize - 2] = 0;
  scratch[Segment::kHeaderSize - 1] = 0;
  if (simd::kernels().internet_checksum(scratch.span()) != stored_ck) return std::nullopt;

  // Re-point payload into the original frame (scratch is local).
  s.payload = frame.subspan(Segment::kHeaderSize, len);
  return s;
}

}  // namespace ngp
