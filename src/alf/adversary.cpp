#include "alf/adversary.h"

#include <memory>

#include "obs/metrics.h"

namespace ngp::alf {

ByteBuffer forge_len_fragment(std::uint16_t session, std::uint32_t adu_id,
                              std::uint32_t claimed_len) {
  DataFragment f;
  f.session = session;
  f.adu_id = adu_id;
  f.name = generic_name(adu_id);
  f.syntax = TransferSyntax::kRaw;
  f.checksum_kind = ChecksumKind::kInternet;
  f.adu_len = claimed_len;
  f.frag_off = 0;
  static const std::uint8_t kBait[8] = {0xDE, 0xAD, 0xBE, 0xEF, 0, 1, 2, 3};
  f.payload = ConstBytes{kBait, sizeof kBait};
  return encode_fragment(f);
}

constexpr std::uint32_t kForgedAduLen = 0x80000000u;  ///< 2^31: the classic forged claim
constexpr std::uint16_t kForeignSessionDelta = 7;     ///< added to the observed session id
constexpr std::uint32_t kFarIdDelta = 1u << 24;       ///< added to the observed adu_id

AdversaryFn make_chaos_adversary(AdversaryStats& stats) {
  // Rotation state lives in the closure so consecutive forgeries cycle
  // through the shapes deterministically.
  auto turn = std::make_shared<std::uint32_t>(0);
  return [turn, &stats](ConstBytes observed, Rng& rng) -> ByteBuffer {
    auto msg = decode_message(observed);
    if (!msg || msg->type != MessageType::kData) return {};
    const DataFragment& seen = msg->data;

    switch ((*turn)++ % 4) {
      case 0: {
        // Fresh id claiming a huge ADU: the unbounded-allocation probe.
        ++stats.forged_len;
        const auto id = seen.adu_id + static_cast<std::uint32_t>(rng.uniform_range(100, 199));
        return forge_len_fragment(seen.session, id, kForgedAduLen);
      }
      case 1: {
        // The observed fragment verbatim, under a foreign session id.
        ++stats.cross_session;
        DataFragment f = seen;
        f.session = static_cast<std::uint16_t>(seen.session + kForeignSessionDelta);
        return encode_fragment(f);
      }
      case 2: {
        // Same id, contradictory metadata: claims double the length.
        ++stats.conflicting_len;
        DataFragment f = seen;
        f.adu_len = seen.adu_len * 2 + 64;
        f.frag_off = 0;
        return encode_fragment(f);
      }
      default: {
        // An id far beyond any plausible recovery window.
        ++stats.far_future_id;
        DataFragment f = seen;
        f.adu_id = seen.adu_id + kFarIdDelta;
        return encode_fragment(f);
      }
    }
  };
}

void AdversaryStats::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("forged_len", forged_len);
  sink.counter("cross_session", cross_session);
  sink.counter("conflicting_len", conflicting_len);
  sink.counter("far_future_id", far_future_id);
}

}  // namespace ngp::alf
