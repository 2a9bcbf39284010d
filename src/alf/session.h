// session.h — shared per-association parameters for ALF endpoints.
//
// Connection establishment and option negotiation happen out-of-band (§3
// explicitly sets aside "session initiation, service location, and so on" —
// they do not occur at data-transfer time). Both endpoints are constructed
// from one SessionConfig, which plays the role of the negotiated agreement:
// the transfer syntax, integrity algorithm, encryption keying, and the
// loss-recovery policy the application selected.
//
// A config is written by designated initialisation, naming only the fields
// that differ from the defaults:
//
//   alf::SessionConfig cfg{.session_id = 7, .checksum = ChecksumKind::kCrc32,
//                          .fec_k = 4};
//
// validate() is the one check; Sessiond::open and the handshake run it.
#pragma once

#include <cstdint>

#include "checksum/checksum.h"
#include "crypto/chacha20.h"
#include "presentation/codec.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace ngp::alf {

/// §5: "buffering by the sender transport, recomputation by the sending
/// application, or proceeding without retransmission" — the three recovery
/// options a general-purpose protocol must permit.
enum class RetransmitPolicy : std::uint8_t {
  kTransportBuffered = 0,   ///< sender transport keeps a copy until done
  kApplicationRecompute = 1,///< sender app regenerates the ADU on demand
  kNone = 2,                ///< real-time: losses are the receiver's problem
};

/// §6: run receive-side manipulations as one fused loop or layer-by-layer.
enum class ProcessMode : std::uint8_t {
  kIntegrated = 0,  ///< ILP: single pass (verify+decrypt in one loop)
  kLayered = 1,     ///< conventional: one pass per manipulation
};

struct SessionConfig {
  std::uint16_t session_id = 1;
  TransferSyntax syntax = TransferSyntax::kRaw;
  ChecksumKind checksum = ChecksumKind::kInternet;
  RetransmitPolicy retransmit = RetransmitPolicy::kTransportBuffered;
  ProcessMode process_mode = ProcessMode::kIntegrated;

  bool encrypt = false;  ///< ChaCha20 with per-ADU nonce derived from adu_id
  ChaChaKey key{};       ///< shared key (out-of-band key agreement)

  /// ADU-level FEC (footnote 10): one XOR parity fragment per `fec_k` data
  /// fragments. 0 disables FEC. Most valuable with RetransmitPolicy::kNone
  /// (no time for a NACK round trip) and on high-loss substrates.
  std::uint8_t fec_k = 0;

  /// Sender pacing rate, bits/second (out-of-band flow control). 0 = line
  /// rate (no pacing).
  double pace_bps = 0;

  /// Recovery epoch this endpoint speaks (supervised restart, DESIGN.md
  /// §10): a restarted incarnation bumps the epoch, and the receiver drops
  /// DATA fragments stamped with any other epoch as stale. 0 is the
  /// initial epoch and encodes identically to the pre-epoch wire format.
  std::uint8_t epoch = 0;
  /// Sender: first ADU id this incarnation assigns. A restarted sender
  /// continues its predecessor's id space (ids are the recovery handles a
  /// RESUME bitmap refers to), so the supervisor passes the old
  /// next_adu_id here. 0 is reserved; must be >= 1.
  std::uint32_t first_adu_id = 1;

  /// Receiver: how long an ADU-id gap may persist before it is NACKed
  /// (covers plain reordering without spurious recovery traffic).
  SimDuration nack_delay = 20 * kMillisecond;
  /// Receiver: re-NACK interval while an ADU stays missing.
  SimDuration nack_retry = 50 * kMillisecond;
  /// Receiver: explicit ceiling on the per-ADU NACK exponential backoff
  /// (the doubling otherwise tops out at nack_retry * 64). 0 = no extra
  /// cap beyond that implicit one.
  SimDuration nack_backoff_cap = 0;
  /// Receiver: deterministic seeded jitter added to every NACK backoff, as
  /// a fraction of the backoff in [0, nack_jitter). Many sessions
  /// recovering from one shared outage must not synchronise their NACK
  /// storms; the jitter decorrelates them while staying reproducible.
  double nack_jitter = 0.25;
  /// Seed for the endpoint's private jitter stream. 0 derives one from
  /// session_id, so unconfigured endpoints remain deterministic.
  std::uint64_t recovery_seed = 0;
  /// Receiver: NACKs per pacing record before an ADU is reported lost (in
  /// application terms). Each reassembly of an id counts afresh, beside
  /// the record for while none of its bytes are held (DESIGN.md §5), so an
  /// id may be NACKed more than max_nacks times in all.
  int max_nacks = 10;
  /// Receiver: progress-report cadence (out-of-band feedback).
  SimDuration progress_interval = 50 * kMillisecond;

  /// Sender: cap on buffered-for-retransmission bytes (policy kTransportBuffered).
  std::size_t retransmit_buffer_limit = 16 << 20;

  // --- Hostile-substrate hardening (fault-injection work, DESIGN.md §5) ---
  // Every fragment header is attacker-controlled input: a forged adu_len is
  // one header away from unbounded allocation, a forged adu_id from
  // unbounded bookkeeping. These bounds cap what any frame can commit the
  // receiver to before its bytes have proven themselves.

  /// Receiver: largest claimed adu_len accepted; fragments claiming more
  /// are counted corrupt and dropped before any allocation.
  std::uint32_t max_adu_len = 8 << 20;

  /// Receiver: cap on total reassembly memory across all pending ADUs:
  /// per ADU the larger of its claimed adu_len and the pool capacity its
  /// slices pin (a referenced frame pins its whole segment), plus FEC
  /// parity. When a new ADU does not fit, the oldest incomplete ADU is
  /// evicted (its id stays recoverable via NACK); a fragment that still
  /// does not fit is dropped. 0 = unlimited.
  std::size_t reassembly_bytes_limit = 32 << 20;

  /// Receiver: ADU ids are only accepted within this window above the
  /// closed prefix, bounding the receiver's per-id book and the NACK scan
  /// range against forged far-future ids. 0 = unlimited.
  std::uint32_t adu_id_window = 1 << 16;

  // --- Graceful degradation under overload (DESIGN.md §10.3) ---
  // ALF's escape hatch: because the application names its data, the
  // receiver can shed the least important incomplete ADUs under memory
  // pressure instead of stalling (or evicting) indiscriminately.

  /// Receiver: once reassembly memory exceeds this mark, shed
  /// lowest-priority incomplete ADUs (see AlfReceiver::set_priority) until
  /// back under shed_lowwater. Should sit below reassembly_bytes_limit so
  /// policy acts before the hard limit's blind eviction. 0 disables.
  std::size_t shed_highwater = 0;
  /// Shedding target. 0 = shed_highwater / 2.
  std::size_t shed_lowwater = 0;

  /// Both ends: stall watchdog. A receiver session hearing nothing valid
  /// for this long — no validated current-epoch fragment, no DONE news —
  /// is abandoned via on_session_failed (silence, not redundancy, is the
  /// failure signal: duplicate traffic still proves the peer is alive); a
  /// finished sender hearing no feedback for this long gives up waiting
  /// for the DONE-ack and releases its buffers. 0 disables.
  SimDuration stall_timeout = 30 * kSecond;

  /// Single bounds-check path for a whole config (the checks the endpoint
  /// constructors used to scatter): every rejectable combination is named
  /// here. negotiate.cpp runs it so a malformed offer dies at handshake
  /// time, and Sessiond::open runs it before building any endpoint.
  /// Endpoints assume a validated config.
  Status validate() const;
};

}  // namespace ngp::alf
