#include "netsim/framing.h"

#include "obs/metrics.h"
#include "simd/dispatch.h"

namespace ngp {

FramedBytePath::FramedBytePath(ByteStreamLink& pipe, std::size_t max_payload)
    : pipe_(pipe), max_payload_(max_payload) {
  pipe_.set_reader([this](ConstBytes chunk) { on_chunk(chunk); });
}

ByteBuffer FramedBytePath::encode_frame(ConstBytes payload) {
  ByteBuffer out(kHeaderSize + payload.size() + kTrailerSize);
  WireWriter w(out.span());
  w.u16(kMagic);
  w.u16(static_cast<std::uint16_t>(payload.size()));
  // Header checksum over magic+len (4 bytes, even).
  w.u16(simd::kernels().internet_checksum(out.subspan(0, 4)));
  w.bytes(payload);
  w.u32(simd::crc32(simd::kernels(), payload));
  return out;
}

bool FramedBytePath::send(ConstBytes frame) {
  if (frame.size() > max_payload_) return false;
  ByteBuffer wire = encode_frame(frame);
  ++stats_.frames_sent;
  // Partial writes would shear the frame; all or nothing.
  return pipe_.write(wire.span()) == wire.size();
}

void FramedBytePath::on_chunk(ConstBytes chunk) {
  accum_.insert(accum_.end(), chunk.begin(), chunk.end());
  deframe();
}

void FramedBytePath::deframe() {
  auto peek = [&](std::size_t i) { return accum_[i]; };

  for (;;) {
    // Hunt for the magic at the head of the accumulator.
    while (accum_.size() >= 2 &&
           !(peek(0) == (kMagic >> 8) && peek(1) == (kMagic & 0xFF))) {
      accum_.pop_front();
      ++stats_.resync_slides;
    }
    if (accum_.size() < kHeaderSize) return;

    const std::uint16_t len = static_cast<std::uint16_t>((peek(2) << 8) | peek(3));
    const std::uint16_t stored_ck =
        static_cast<std::uint16_t>((peek(4) << 8) | peek(5));
    const std::uint8_t hdr[4] = {peek(0), peek(1), peek(2), peek(3)};
    if (simd::kernels().internet_checksum({hdr, 4}) != stored_ck || len > max_payload_) {
      // Not a real header (payload bytes mimicking magic, or damage):
      // slide one byte and keep hunting.
      accum_.pop_front();
      ++stats_.header_rejects;
      continue;
    }

    const std::size_t total = kHeaderSize + len + kTrailerSize;
    if (accum_.size() < total) return;  // wait for the rest

    ByteBuffer payload(len);
    for (std::size_t i = 0; i < len; ++i) payload[i] = peek(kHeaderSize + i);
    std::uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
      stored_crc = (stored_crc << 8) | peek(kHeaderSize + len + static_cast<std::size_t>(i));
    }

    if (simd::crc32(simd::kernels(), payload.span()) != stored_crc) {
      // Damaged payload (or a fake header that survived the 16-bit check):
      // do NOT consume the whole candidate — a real frame may start inside
      // it. Slide one byte.
      accum_.pop_front();
      ++stats_.crc_rejects;
      continue;
    }

    accum_.erase(accum_.begin(), accum_.begin() + static_cast<std::ptrdiff_t>(total));
    ++stats_.frames_delivered;
    if (handler_) handler_(payload.span());
  }
}

void FramedBytePath::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("frames_sent", stats_.frames_sent);
  sink.counter("frames_delivered", stats_.frames_delivered);
  sink.counter("resync_slides", stats_.resync_slides);
  sink.counter("header_rejects", stats_.header_rejects);
  sink.counter("crc_rejects", stats_.crc_rejects);
}

}  // namespace ngp
