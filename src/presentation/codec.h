// codec.h — uniform front-end over the transfer syntaxes.
//
// The ALF session negotiates a transfer syntax per association (§5: "the
// sender and receiver can negotiate to translate in one step from the
// sender to the receiver's format"). This header gives transports, benches
// and examples one switchable entry point over the two workload shapes the
// paper measures: 32-bit integer arrays (the conversion-intensive case) and
// raw octet strings (the baseline case).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "buf/chain.h"
#include "obs/cost.h"
#include "util/bytes.h"
#include "util/result.h"

namespace ngp {

/// Transfer syntaxes an association can negotiate.
enum class TransferSyntax : std::uint8_t {
  kRaw = 0,         ///< image mode: no conversion at all
  kLwts = 1,        ///< light-weight syntax (copy on like hosts)
  kXdr = 2,         ///< Sun XDR (byteswap per element)
  kBer = 3,         ///< ASN.1 BER, hand-tuned array codec
  kBerToolkit = 4,  ///< ASN.1 BER via the generic prototype-toolkit path
};

std::string_view transfer_syntax_name(TransferSyntax s) noexcept;

// Every codec takes an optional obs::CostAccount and charges the
// conversion's memory traffic to it (one transforming pass: each input
// word loaded, each output word stored) — the presentation line item in a
// stack's cost profile. Null = no accounting, no overhead.

/// Encodes an int32 array in the given syntax. kRaw emits host memory
/// image (little-endian packed).
ByteBuffer encode_int_array(TransferSyntax s, std::span<const std::int32_t> values,
                            obs::CostAccount* cost = nullptr);

/// Decodes an int32 array.
Result<std::vector<std::int32_t>> decode_int_array(TransferSyntax s, ConstBytes data,
                                                   obs::CostAccount* cost = nullptr);

/// Encodes an octet string. For kRaw this is the identity (one copy).
ByteBuffer encode_octets(TransferSyntax s, ConstBytes data,
                         obs::CostAccount* cost = nullptr);

/// Decodes an octet string into an owned buffer.
Result<ByteBuffer> decode_octets(TransferSyntax s, ConstBytes data,
                                 obs::CostAccount* cost = nullptr);

/// Zero-copy decode: a view of the decoded octets inside `data` (every
/// octet-string syntax carries the payload contiguously after its
/// framing). The view is only valid while `data` is.
Result<ConstBytes> decode_octets_view(TransferSyntax s, ConstBytes data);

/// Chain-aware octet decode: trims the syntax framing off `chain` in place
/// (trim_front the header, trim_back any padding/trailing) so the chain's
/// slices ARE the payload — no flatten, no byte moved or copied. Only the
/// few framing bytes are even read, which is what keeps a framed transfer's
/// copied-bytes ledger at the placement floor (DESIGN.md §12/§13). On
/// error the chain is left unchanged. kRaw is a no-op.
Status decode_octets_chain(TransferSyntax s, buf::BufChain& chain);

}  // namespace ngp
