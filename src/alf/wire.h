// wire.h — ALF protocol wire formats.
//
// Design rule from §6: minimize in-band ordering constraints. Every DATA
// fragment is fully self-describing — it carries the ADU's name, syntax,
// total length, its own offset within the ADU, and the per-ADU checksum —
// so the only control step that must precede manipulation is demux (the one
// constraint the paper concedes is unavoidable). Any fragment can be placed
// into its ADU with no other connection state.
//
// Control traffic (NACK / PROGRESS / DONE) is out-of-band with respect to
// the data pipeline: it regulates, it never gates manipulation.
//
// DATA fragment layout (big-endian), header 54 bytes:
//   magic(1) type(1) session(2) adu_id(4)
//   ns(1) name.a(8) name.b(8) name.c(8)
//   syntax(1) flags(1) checksum_kind(1) fec_k(1) epoch(1)
//   adu_len(4) frag_off(4) frag_len(2)
//   adu_checksum(4) header_checksum(2)
// Every field sits at a fixed offset, and header_checksum seals bytes 0-51.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "alf/adu.h"
#include "checksum/checksum.h"
#include "util/bytes.h"

namespace ngp::alf {

constexpr std::uint8_t kMagic = 0x41;  // 'A'

enum class MessageType : std::uint8_t {
  kData = 0,
  kNack = 1,      ///< receiver -> sender: these ADU ids are missing
  kProgress = 2,  ///< receiver -> sender: rate/credit feedback (out-of-band)
  kDone = 3,      ///< sender -> receiver: stream complete, total ADU count
  kResume = 4,    ///< receiver -> sender: new epoch + received-ADU bitmap
  kProbe = 5,     ///< either way: path liveness probe (circuit breakers)
};

/// True for the types that travel from receiver to sender, the feedback
/// plane: NACK, PROGRESS and RESUME. DATA, DONE and PROBE are not, so a
/// probe goes to the data plane's receiver first. Every direction demux
/// (FrameRouter, sessiond's sessions) asks this one map.
constexpr bool is_feedback(MessageType t) noexcept {
  return t == MessageType::kNack || t == MessageType::kProgress ||
         t == MessageType::kResume;
}

enum AduFlags : std::uint8_t {
  kFlagEncrypted = 0x01,  ///< payload is ChaCha20-encrypted (per-ADU nonce)
  kFlagLastAdu = 0x02,    ///< this ADU is the stream's last (EOS hint)
  kFlagFecParity = 0x04,  ///< payload is an XOR parity block, not ADU bytes
};

/// One transmission unit of an ADU.
struct DataFragment {
  std::uint16_t session = 0;
  /// Recovery epoch (supervised restart, DESIGN.md §10): a restarted
  /// session bumps the epoch so fragments from the failed incarnation are
  /// recognisably stale. Carried in the header byte that used to be
  /// reserved padding — epoch 0 encodes identically to the old format.
  std::uint8_t epoch = 0;
  std::uint32_t adu_id = 0;     ///< sender-sequential id (recovery handle)
  AduName name;                 ///< application name (delivery handle)
  TransferSyntax syntax = TransferSyntax::kRaw;
  std::uint8_t flags = 0;
  ChecksumKind checksum_kind = ChecksumKind::kInternet;
  /// ADU-level FEC (paper footnote 10): data fragments per XOR parity
  /// block, 0 = FEC off. For a kFlagFecParity fragment, frag_off is the
  /// byte offset of the group's first data fragment and the payload is the
  /// XOR of the group's (zero-padded) fragment payloads.
  std::uint8_t fec_k = 0;
  std::uint32_t adu_len = 0;    ///< total encoded ADU length
  std::uint32_t frag_off = 0;   ///< this fragment's offset within the ADU
  std::uint32_t adu_checksum = 0;  ///< over the full (plaintext) ADU payload
  ConstBytes payload;

  static constexpr std::size_t kHeaderSize = 54;

  bool is_parity() const noexcept { return (flags & kFlagFecParity) != 0; }
};

/// Receiver -> sender: ADU ids the receiver believes lost.
struct NackMessage {
  std::uint16_t session = 0;
  std::vector<std::uint32_t> adu_ids;

  static constexpr std::size_t kMaxIds = 256;
};

/// Receiver -> sender rate/credit report. This is the paper's out-of-band
/// flow control: "the actual computation and negotiation of the transfer
/// rate can be performed on an out-of-band basis" (§3).
struct ProgressMessage {
  std::uint16_t session = 0;
  std::uint32_t complete_adus = 0;   ///< ADUs closed (delivered or abandoned)
  std::uint32_t highest_adu_seen = 0;
  std::uint32_t consume_rate_kbps = 0;  ///< receiver's measured drain rate
  /// True once the receiver KNOWS the stream ended (it saw DONE and closed
  /// every ADU). Distinct from complete_adus == total: a receiver that
  /// closed everything it has seen but missed DONE is NOT complete, and
  /// the sender must keep re-offering DONE.
  bool session_complete = false;
};

/// Sender -> receiver end-of-stream marker.
struct DoneMessage {
  std::uint16_t session = 0;
  std::uint32_t total_adus = 0;
};

/// Receiver -> sender: supervised-restart delta-resume summary (DESIGN.md
/// §10). Establishes a new epoch and tells the sender which ADU ids the
/// receiver already closed, so only the remainder is retransmitted:
/// ids 1..closed_prefix are all closed, and bitmap bit i (byte i/8, bit
/// i%8 LSB-first) covers id closed_prefix + 1 + i.
struct ResumeMessage {
  std::uint16_t session = 0;
  std::uint8_t epoch = 0;          ///< the NEW epoch being established
  std::uint32_t closed_prefix = 0; ///< ids 1..prefix closed at the receiver
  std::vector<std::uint8_t> bitmap;

  /// Bitmap bytes are bounded: a RESUME summarises at most 8 * kMaxBytes
  /// ids above the prefix (everything further is simply re-sent — delta
  /// resume is an optimisation, never a correctness requirement).
  static constexpr std::size_t kMaxBitmapBytes = 1024;

  bool id_closed(std::uint32_t adu_id) const noexcept {
    if (adu_id == 0) return false;
    if (adu_id <= closed_prefix) return true;
    const std::uint64_t bit = std::uint64_t{adu_id} - closed_prefix - 1;
    if (bit >= std::uint64_t{bitmap.size()} * 8) return false;
    return (bitmap[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1;
  }
};

/// Path liveness probe: circuit breakers half-open a tripped path by
/// sending a few of these and watching whether the path delivers them.
/// Endpoints ignore probes entirely — only path-level delivery counters
/// (LinkStats / FaultStats) observe them.
struct ProbeMessage {
  std::uint16_t session = 0;
  std::uint8_t epoch = 0;
  std::uint32_t seq = 0;
};

// ---- Encoding --------------------------------------------------------------
//
// Each encoder sizes its frame exactly before writing it: one allocation
// per frame, and none for encode_fragment_into.

/// Writes `f` as a DATA frame into the front of `out`: the 54-byte header
/// at its fixed offsets, sealed by one checksum call, then the payload.
/// Returns the frame length (kHeaderSize + payload size), or 0 without
/// writing anything when `out` is shorter than that.
std::size_t encode_fragment_into(const DataFragment& f, MutableBytes out);
ByteBuffer encode_fragment(const DataFragment& f);
ByteBuffer encode_nack(const NackMessage& m);
ByteBuffer encode_progress(const ProgressMessage& m);
ByteBuffer encode_done(const DoneMessage& m);
ByteBuffer encode_resume(const ResumeMessage& m);
ByteBuffer encode_probe(const ProbeMessage& m);

/// Any decoded ALF message.
struct Message {
  MessageType type = MessageType::kData;
  DataFragment data;       // valid when type == kData
  NackMessage nack;        // valid when type == kNack
  ProgressMessage progress;// valid when type == kProgress
  DoneMessage done;        // valid when type == kDone
  ResumeMessage resume;    // valid when type == kResume
  ProbeMessage probe;      // valid when type == kProbe
};

/// Parses and verifies a frame (header checksum). nullopt on any damage.
std::optional<Message> decode_message(ConstBytes frame);

/// Usable payload bytes per fragment for a path MTU.
constexpr std::size_t fragment_payload_capacity(std::size_t mtu) noexcept {
  return mtu > DataFragment::kHeaderSize ? mtu - DataFragment::kHeaderSize : 0;
}

// ---- Frame peeks -----------------------------------------------------------
//
// Every ALF frame starts with the same fixed prefix — magic(1) type(1)
// session(2) — and DATA frames follow it with adu_id(4). The peeks below
// read ONLY that prefix through one shared bounds-checked reader (no
// header-checksum verification: they answer "where does this frame go",
// not "is this frame intact" — the owning endpoint still validates). They
// are the demux primitives of §6: demultiplexing is the one control step
// the paper concedes must precede manipulation.

/// Message type off any recognisable ALF frame; nullopt for garbage,
/// truncation, or foreign protocols.
std::optional<MessageType> peek_message_type(ConstBytes frame) noexcept;

/// Flow demux key: the session id off any recognisable ALF frame (every
/// message type carries it at the same offset), nullopt otherwise. A full
/// flow id pairs this with the peer address of the path the frame arrived
/// on (sessiond::FlowId); the frame itself only names the session.
std::optional<std::uint16_t> peek_flow_id(ConstBytes frame) noexcept;

/// Cheap frame peek for the flight recorder: the flow-scoped trace id
/// ((session << 32) | adu_id) of a DATA frame, or 0 for anything that is
/// not a recognisable DATA frame (control traffic, garbage, foreign
/// protocols). Netsim components take this as an injected tagger so they
/// can label frames without learning the ALF wire format — the same
/// layering rule as fault-plan adversaries.
std::uint64_t peek_flight_tag(ConstBytes frame) noexcept;

}  // namespace ngp::alf
