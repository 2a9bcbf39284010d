// cell_link.h — ATM-style cell transmission path with AAL5-like SAR.
//
// B-ISDN/ATM (§1, §5 of the paper) transmits fixed 53-byte cells: 5 bytes
// of header and 48 of payload. Frames larger than one cell are segmented
// (Segmentation And Reassembly); the final cell carries an 8-byte trailer
// with the frame length and a CRC-32 over the whole frame, mirroring the
// CCITT Adaptation Layer the paper's footnote 9 discusses. A single lost
// cell therefore destroys the whole frame at reassembly — the loss
// amplification that bench_cells sweeps, and one reason the paper rejects
// the cell as the unit of manipulation synchronization.
#pragma once

#include <cstdint>

#include "netsim/link.h"
#include "netsim/net_path.h"
#include "util/result.h"

namespace ngp {

/// ATM constants.
constexpr std::size_t kCellHeaderSize = 5;
constexpr std::size_t kCellPayloadSize = 48;
constexpr std::size_t kCellSize = kCellHeaderSize + kCellPayloadSize;  // 53
/// AAL5-like trailer in the final cell: u32 frame length + u32 CRC-32.
constexpr std::size_t kAalTrailerSize = 8;

/// Counters for the SAR process (cell-level counters live on the inner
/// Link; these are frame-level).
struct CellLinkStats {
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped_reassembly = 0;  ///< CRC/length mismatch
  std::uint64_t cells_sent = 0;
};

/// Frame path over a simulated cell stream.
///
/// Owns the inner cell Link. Cell order is preserved (CCITT proscribes
/// reordering); per-cell loss comes from the inner link's loss model.
class CellLink final : public NetPath {
 public:
  /// `cell_config.mtu` is overridden to the cell size; bandwidth/delay/loss
  /// apply per cell.
  CellLink(EventLoop& loop, LinkConfig cell_config, std::size_t max_frame = 65535);

  bool send(ConstBytes frame) override;
  void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  std::size_t max_frame_size() const override { return max_frame_; }

  /// Convenience passthrough to the inner link's loss model.
  void set_cell_loss_rate(double p) { cells_.set_loss_rate(p); }
  void set_cell_loss_model(std::unique_ptr<LossModel> m) { cells_.set_loss_model(std::move(m)); }

  const CellLinkStats& stats() const noexcept { return stats_; }
  /// The inner cell link; cell-level stats follow the uniform convention:
  /// link.cells().stats().
  const Link& cells() const noexcept { return cells_; }

  /// Writes the frame-level SAR counters, and the inner cell link's
  /// counters under "cells.".
  void emit_metrics(obs::MetricSink& sink) const;

  /// Cells needed to carry a frame of `frame_len` bytes (incl. trailer).
  static std::size_t cells_for_frame(std::size_t frame_len) noexcept {
    return (frame_len + kAalTrailerSize + kCellPayloadSize - 1) / kCellPayloadSize;
  }

 private:
  void on_cell(ConstBytes cell);
  void finish_frame();

  Link cells_;
  FrameHandler handler_;
  CellLinkStats stats_;
  std::size_t max_frame_;
  std::uint16_t next_vci_seq_ = 0;

  // Reassembly state (single VC, in-order cells).
  ByteBuffer assembling_;
  bool assembling_active_ = false;
};

}  // namespace ngp
