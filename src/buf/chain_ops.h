// chain_ops.h — manipulation passes over BufChains (ngp::buf).
//
// The §4 claim, applied to the gather view: one logical pass over a chain
// costs the same as one pass over a flat buffer — the segment walk only
// redirects the pointers. Every writing pass is one walk over a chain
// (chain_pass), the pass every ManipulationPlan runs through
// run_manipulation_chain: per segment, the active SIMD tier's fused
// kernel piece by piece, with a scalar head and tail only where a 4-byte
// swap unit is split by a segment boundary or the swap's tail rule leaves
// the last bytes alone. Internet sums fold per piece with
// InternetChecksum::combine, which tracks byte parity so odd lengths fold
// correctly; CRC-32 runs the tier's crc32 then byteswap32 per piece of at
// most 2 KiB, its raw state carrying from piece to piece. A flat buffer
// is a chain of one segment. chain_pass is tested against ilp_fused over
// the ILP stage templates across every tier, cutting and misalignment
// (buf_test, simd_test), and every plan's verdict and bytes against the
// scalar checksums and ngp::chacha20_xor (buf_test).
//
// ChaCha20: the cipher's keystream is positional, so it is decoupled from
// the cutting. One simd::KeystreamCursor (simd/keystream.h) per walk runs
// the tier's vector block function ahead of the data, in whole 1,024-byte
// batches sized to the rest of the current segment (at most 2,048 bytes
// per refill), into a stack buffer, and every piece takes the next bytes
// from it; what one segment leaves of a refill the next one starts on.
// No block is computed twice and none alone at a seam, so the walk does
// the cipher work of one flat pass. bench_ilp_fusion's "chain seams" rows
// time the full decrypt + Internet + swap plan over one bulk_xdr ADU
// (16,388 B) as the link delivers it (12 fragments at offset 54 of their
// own pool segments), as a 9,000-byte MTU would (2 fragments) and in one
// segment.
// On a 4-vCPU x86-64 host (GCC 12, -O2, ten runs) the 12-segment walk
// took 1.11x the one-segment time on AVX-512, 1.06x on AVX2, 1.03x on
// SSE and 1.02x on scalar (medians of the per-run ratios), and 2
// segments within 3% of one.
//
// Ledger discipline matches simd/dispatch.h: these helpers never touch a
// CostAccount; CALLERS charge the analytic pass counts, so recorded costs
// stay tier- and segmentation-independent.
#pragma once

#include <cstdint>

#include "buf/chain.h"
#include "checksum/checksum.h"
#include "crypto/chacha20.h"

namespace ngp::buf {

/// `kind`'s checksum of the chain's bytes (widened to 32 bits, 0 for
/// kNone) — identical to compute_checksum(kind, flattened chain). One
/// load-only pass: Internet sums fold with combine, CRC-32 and Adler-32
/// carry their running state across segments, Fletcher-32 carries the odd
/// byte of a 16-bit word split by a segment boundary.
std::uint32_t chain_checksum(ChecksumKind kind, const BufChain& c);

/// One fused pass over the chain, in stage order: ChaCha20-decrypts in
/// place when `decrypt` is set (keystream block counter 0 at chain byte 0),
/// takes `sum`'s checksum of the plaintext, then byte-swaps each 32-bit
/// unit in place when `byteswap` is set, counted from chain byte 0 with the
/// flat byteswap32 kernel's tail rule (whole 8-byte words and an
/// exactly-4-byte tail swap, any other tail passes through). Returns the
/// checksum widened to 32 bits (0 for kNone). Bit-identical however the
/// chain is cut: the chain of one segment is the flat pass.
///
/// `sum` is kNone, kInternet or kCrc32 whenever the pass writes; a pass
/// that writes nothing is chain_checksum(sum, c). One load+store pass when
/// either stage writes.
std::uint32_t chain_pass(BufChain& c, const ChaChaKey* decrypt,
                         ChecksumKind sum, bool byteswap);

}  // namespace ngp::buf
