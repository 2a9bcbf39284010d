// chain_ops.h — manipulation passes over BufChains (ngp::buf).
//
// The §4 claim, applied to the gather view: one logical pass over a chain
// costs the same memory traffic as one pass over a flat buffer — the
// segment walk only redirects the pointers. Every writing pass is one walk
// (chain_pass): per segment, a scalar head up to the next 64-byte
// keystream block or 4-byte swap unit, the active SIMD tier's kernel over
// the aligned body, then a scalar tail. Internet sums fold per segment
// with InternetChecksum::combine, which tracks byte parity so odd segment
// lengths fold correctly; CRC-32 carries its running state from segment to
// segment (tested against the flat executor across every tier in
// buf_test).
//
// ChaCha20 note: the cipher's keystream is positional. A segment that
// starts at ADU byte offset `pos` is decrypted with a scalar prefix up to
// the next 64-byte keystream block boundary, then the kernel runs from
// block pos/64 — bit-identical to decrypting the flat buffer.
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
/// checksum widened to 32 bits (0 for kNone). Bit-identical to the flat
/// executor's fused pass over the flattened chain.
///
/// `sum` is kNone, kInternet or kCrc32 whenever the pass writes; a pass
/// that writes nothing is chain_checksum(sum, c). One load+store pass when
/// either stage writes.
std::uint32_t chain_pass(BufChain& c, const ChaChaKey* decrypt,
                         ChecksumKind sum, bool byteswap);

}  // namespace ngp::buf
