// adversary.h — protocol-aware adversarial frame forgery for FaultyPath.
//
// FaultyPath (netsim) mangles frames as opaque bytes; the attacks that
// actually probe the receive path's resource bounds need valid-looking ALF
// headers — a forged adu_len that asks for gigabytes, a fragment replayed
// under a foreign session id, a stray id far outside the recovery window.
// ChaosAdversary observes real fragments in flight and derives such frames
// from them (correct magic, sealed header checksum), exactly the frames a
// hostile or buggy substrate could synthesize without knowing any secret.
//
// Used by the chaos/robustness tests and bench_faults; lives in alf because
// it speaks the wire format.
#pragma once

#include <cstdint>
#include <string>

#include "alf/wire.h"
#include "netsim/fault.h"

namespace ngp::obs {
class MetricSink;
class MetricsRegistry;
}  // namespace ngp::obs

namespace ngp::alf {

/// Counts of each forged shape actually emitted (for test assertions).
struct AdversaryStats {
  std::uint64_t forged_len = 0;       ///< fresh adu_id claiming 2^31 bytes
  std::uint64_t cross_session = 0;    ///< same fragment, session id + 7
  std::uint64_t conflicting_len = 0;  ///< existing adu_id, contradictory adu_len
  std::uint64_t far_future_id = 0;    ///< adu_id + 2^24, far beyond the window
};

/// Builds an AdversaryFn for FaultyPath::set_adversary. Each observed DATA
/// frame yields the next of the four shapes above, in that order. The
/// returned callable keeps a reference to `stats`; the caller owns both
/// lifetimes.
AdversaryFn make_chaos_adversary(AdversaryStats& stats);

/// Writes the forged-shape counters into one snapshot source.
void emit_metrics(obs::MetricSink& sink, const AdversaryStats& stats);
/// Registers the adversary counters under `prefix` (e.g. "chaos.adversary").
/// `stats` must outlive the registry or the source must be removed first.
void register_metrics(obs::MetricsRegistry& reg, std::string prefix,
                      const AdversaryStats& stats);

/// Forges a single fragment claiming `claimed_len` total ADU bytes with a
/// tiny payload — the minimal "unbounded allocation" probe, usable without
/// any observed traffic.
ByteBuffer forge_len_fragment(std::uint16_t session, std::uint32_t adu_id,
                              std::uint32_t claimed_len);

}  // namespace ngp::alf
