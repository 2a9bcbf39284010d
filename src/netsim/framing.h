// framing.h — the Framing transfer-control function over an unframed pipe.
//
// §3: "Encapsulation-based protocols require that frame boundaries be
// conveyed between sending and receiving entities." Over a byte pipe with
// no transmission framing (byte_stream_link.h — the paper's WDM example),
// this sublayer conveys them itself:
//
//   frame := magic(2)=0x4E47 'NG' | len(2) | header_cksum(2) | payload |
//            payload_crc(4)
//
// The deframer hunts for the magic, validates the header checksum (so a
// magic-looking pattern inside payload data rarely fools it), then the
// payload CRC. On ANY mismatch it slides the hunt window by one byte —
// the classic resynchronization discipline, which also recovers from
// byte deletion shifting the whole stream.
//
// FramedBytePath wraps the pipe as a NetPath, so every transport in the
// suite runs unchanged over framing-free fiber — completing the claim
// that the ADU architecture is independent of the transmission substrate.
#pragma once

#include <cstdint>
#include <string>

#include "netsim/byte_stream_link.h"
#include "netsim/net_path.h"

namespace ngp::obs {
class MetricSink;
}  // namespace ngp::obs

namespace ngp {

struct FramingStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t resync_slides = 0;   ///< bytes skipped hunting for magic
  std::uint64_t header_rejects = 0;  ///< magic found, header checksum bad
  std::uint64_t crc_rejects = 0;     ///< header fine, payload damaged
};

/// Frame codec + NetPath adapter over a ByteStreamLink.
class FramedBytePath final : public NetPath {
 public:
  static constexpr std::uint16_t kMagic = 0x4E47;  // "NG"
  static constexpr std::size_t kHeaderSize = 6;    // magic + len + cksum
  static constexpr std::size_t kTrailerSize = 4;   // payload CRC

  explicit FramedBytePath(ByteStreamLink& pipe, std::size_t max_payload = 8192);
  /// Clears the reader the constructor installed on the pipe, which closes
  /// over `this`: a chunk the pipe delivers after teardown then drops
  /// instead of calling into freed memory. The pipe must outlive the path.
  ~FramedBytePath() { pipe_.set_reader(nullptr); }

  FramedBytePath(const FramedBytePath&) = delete;
  FramedBytePath& operator=(const FramedBytePath&) = delete;

  bool send(ConstBytes frame) override;
  void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  std::size_t max_frame_size() const override { return max_payload_; }

  const FramingStats& stats() const noexcept { return stats_; }

  /// Writes the framing counters into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;

  /// Encodes one frame (exposed for tests).
  static ByteBuffer encode_frame(ConstBytes payload);

 private:
  void on_chunk(ConstBytes chunk);
  /// Attempts to extract frames from accum_; leaves partial data in place.
  void deframe();

  ByteStreamLink& pipe_;
  std::size_t max_payload_;
  FrameHandler handler_;
  FramingStats stats_;
  std::deque<std::uint8_t> accum_;
};

}  // namespace ngp
