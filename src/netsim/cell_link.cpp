#include "netsim/cell_link.h"

#include <cstring>

#include "obs/metrics.h"
#include "simd/dispatch.h"

namespace ngp {

namespace {
// Cell header layout: vci(2) | seq(2) | pti(1). Bit 0 of pti marks the
// final cell of a frame (AAL5 uses the ATM-user-to-user PTI bit this way).
constexpr std::uint8_t kPtiEndOfFrame = 0x01;
constexpr std::uint16_t kDataVci = 42;  // single simulated virtual circuit
}  // namespace

CellLink::CellLink(EventLoop& loop, LinkConfig cell_config, std::size_t max_frame)
    : cells_(loop, [&] {
        cell_config.mtu = kCellSize;
        // Reordering is proscribed for ATM cells (footnote 9); keep order.
        cell_config.reorder_rate = 0.0;
        cell_config.duplicate_rate = 0.0;
        return cell_config;
      }()),
      max_frame_(max_frame) {
  cells_.set_handler([this](ConstBytes cell) { on_cell(cell); });
}

bool CellLink::send(ConstBytes frame) {
  ++stats_.frames_offered;
  if (frame.size() > max_frame_) return false;

  // AAL5-style: payload || pad || trailer(len, crc), split across cells.
  const std::uint32_t crc = simd::crc32(simd::kernels(), frame);
  const std::size_t ncells = cells_for_frame(frame.size());
  const std::size_t padded = ncells * kCellPayloadSize;

  ByteBuffer sdu(padded);
  std::memcpy(sdu.data(), frame.data(), frame.size());
  // Trailer occupies the last 8 bytes of the padded SDU.
  store_u32_be(sdu.data() + padded - 8, static_cast<std::uint32_t>(frame.size()));
  store_u32_be(sdu.data() + padded - 4, crc);

  ByteBuffer cell(kCellSize);
  for (std::size_t i = 0; i < ncells; ++i) {
    std::uint8_t* h = cell.data();
    h[0] = static_cast<std::uint8_t>(kDataVci >> 8);
    h[1] = static_cast<std::uint8_t>(kDataVci);
    h[2] = static_cast<std::uint8_t>(next_vci_seq_ >> 8);
    h[3] = static_cast<std::uint8_t>(next_vci_seq_);
    ++next_vci_seq_;
    h[4] = (i + 1 == ncells) ? kPtiEndOfFrame : 0;
    std::memcpy(cell.data() + kCellHeaderSize, sdu.data() + i * kCellPayloadSize,
                kCellPayloadSize);
    ++stats_.cells_sent;
    cells_.send(cell.span());
  }
  return true;
}

void CellLink::on_cell(ConstBytes cell) {
  if (cell.size() != kCellSize) return;  // malformed cell: ignore
  const std::uint8_t pti = cell[4];
  assembling_active_ = true;
  assembling_.append(cell.subspan(kCellHeaderSize));
  if ((pti & kPtiEndOfFrame) != 0) finish_frame();
}

void CellLink::finish_frame() {
  // Validate the AAL5 trailer against what actually accumulated. A missing
  // cell shifts/omits bytes, so the length or CRC check fails and the whole
  // frame is discarded.
  ByteBuffer sdu = std::move(assembling_);
  assembling_ = ByteBuffer{};
  assembling_active_ = false;

  bool ok = sdu.size() >= kAalTrailerSize && sdu.size() % kCellPayloadSize == 0;
  std::uint32_t frame_len = 0;
  if (ok) {
    frame_len = load_u32_be(sdu.data() + sdu.size() - 8);
    ok = frame_len <= sdu.size() - kAalTrailerSize &&
         cells_for_frame(frame_len) == sdu.size() / kCellPayloadSize;
  }
  if (ok) {
    const std::uint32_t want_crc = load_u32_be(sdu.data() + sdu.size() - 4);
    ok = simd::crc32(simd::kernels(), sdu.subspan(0, frame_len)) == want_crc;
  }
  if (!ok) {
    ++stats_.frames_dropped_reassembly;
    return;
  }
  ++stats_.frames_delivered;
  if (handler_) handler_(sdu.subspan(0, frame_len));
}

void CellLink::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("frames_offered", stats_.frames_offered);
  sink.counter("frames_delivered", stats_.frames_delivered);
  sink.counter("frames_dropped_reassembly", stats_.frames_dropped_reassembly);
  sink.counter("cells_sent", stats_.cells_sent);
  obs::PrefixedSink cells(sink, "cells.");
  cells_.emit_metrics(cells);
}

}  // namespace ngp
