// chain_ops.h — fused manipulation passes over BufChains (ngp::buf).
//
// The §4 claim, applied to the gather view: one logical pass over a chain
// costs the same memory traffic as one pass over a flat buffer — the
// segment walk only redirects the pointers. The Internet-sum helpers run
// the active SIMD tier's fused kernel per segment and fold the
// per-segment sums with InternetChecksum::combine, which tracks byte
// parity so odd segment lengths fold correctly; the other checksum kinds
// carry their running state from segment to segment (tested against the
// flat executor across every tier in buf_test).
//
// ChaCha20 note: the cipher's keystream is positional. A segment that
// starts at ADU byte offset `pos` is decrypted with a scalar prefix up to
// the next 64-byte keystream block boundary, then the fused kernel runs
// from block pos/64 — bit-identical to decrypting the flat buffer.
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

/// RFC 1071 checksum of the chain's bytes — identical to
/// internet_checksum(flattened chain). One load-only pass.
std::uint16_t chain_internet_checksum(const BufChain& c);

/// ChaCha20-decrypts the chain in place (keystream block counter 0 at
/// chain byte 0) while computing the Internet checksum of the PLAINTEXT in
/// the same pass. One load+store pass.
std::uint16_t chain_decrypt_internet_checksum(const ChaChaKey& key,
                                              BufChain& c);

/// ChaCha20 XOR in place, no checksum (the layered-mode pass).
void chain_chacha20_xor(const ChaChaKey& key, BufChain& c);

/// Copies the chain into `dst` (dst.size() >= c.size()) while checksumming
/// the copied bytes in the same pass — the final-placement delivery move.
std::uint16_t chain_copy_internet_checksum(const BufChain& c,
                                           MutableBytes dst);

/// Byte-swaps each 32-bit unit of the chain in place (the fused
/// presentation-decode stage of a compiled plan, DESIGN.md §13), counted
/// from chain byte 0 so units that straddle segment boundaries swap
/// correctly. Matches the flat byteswap32 kernel's tail rule exactly:
/// whole 8-byte words and an exactly-4-byte tail swap, any other tail
/// passes through — bit-identical to flatten + byteswap32 + scatter.
void chain_byteswap32(BufChain& c);

/// chain_internet_checksum + chain_byteswap32 in ONE pass: the checksum
/// absorbs the pre-swap wire bytes (so the check still covers what was
/// sent), the swap lands in place. One load+store pass.
std::uint16_t chain_checksum_byteswap(BufChain& c);

/// Decrypt + checksum(plaintext) + byteswap32 fused over the gather view —
/// the chain twin of the decrypt_checksum_byteswap dispatch kernel
/// (keystream block counter 0 at chain byte 0). One load+store pass.
std::uint16_t chain_decrypt_checksum_byteswap(const ChaChaKey& key,
                                              BufChain& c);

/// `kind`'s checksum of the chain's bytes (widened to 32 bits, 0 for
/// kNone) — identical to compute_checksum(kind, flattened chain). One
/// load-only pass: Internet sums fold with combine, CRC-32 and Adler-32
/// carry their running state across segments, Fletcher-32 carries the odd
/// byte of a 16-bit word split by a segment boundary.
std::uint32_t chain_checksum(ChecksumKind kind, const BufChain& c);

/// CRC-32 fused walk, one pass per segment: ChaCha20-decrypts in place
/// when `decrypt_key` is set (keystream block counter 0 at chain byte 0),
/// takes the CRC-32 of the plaintext, then byte-swaps each 32-bit unit
/// when `byteswap` is set (chain_byteswap32's tail rule). Bit-identical to
/// the flat executor's fused EncryptStage/Crc32Stage/Byteswap32Stage loop
/// over the flattened chain. The CRC state carries across segment
/// boundaries, so no combine step exists. Load-only when neither stage
/// writes, one load+store pass otherwise.
std::uint32_t chain_fused_crc32(BufChain& c, const ChaChaKey* decrypt_key,
                                bool byteswap);

}  // namespace ngp::buf
