// kernels.h — standalone measured kernels for the Table 1 reproduction.
//
// Table 1 of the paper reports copy and checksum speeds for hand-coded
// unrolled loops. These are the copy kernels bench_table1 times (the
// checksum ones live in checksum/internet.h); copy_unrolled is also the
// layered ILP executor's copy pass (word_copy, ilp/engine.h). Each has a
// naive and a tuned form so the unrolling ablation can quantify the
// "hand-coded" part of the claim, and copy_memcpy is what the datapath's
// copies run (copy_bytes).
#pragma once

#include <cstring>

#include "util/bytes.h"

namespace ngp {

/// Byte-at-a-time copy (the untuned baseline).
inline void copy_bytewise(ConstBytes src, MutableBytes dst) noexcept {
  const std::uint8_t* in = src.data();
  std::uint8_t* out = dst.data();
  // volatile-free but intentionally unvectorizable-looking: one byte per
  // iteration with a data dependence on the index only. Compilers may still
  // vectorize; bench_ablation reports what it actually measured.
  for (std::size_t i = 0; i < src.size(); ++i) out[i] = in[i];
}

/// Word-at-a-time copy, 4-way unrolled (Table 1 "Copy" kernel).
inline void copy_unrolled(ConstBytes src, MutableBytes dst) noexcept {
  const std::uint8_t* in = src.data();
  std::uint8_t* out = dst.data();
  std::size_t n = src.size();
  while (n >= 32) {
    store_u64_le(out, load_u64_le(in));
    store_u64_le(out + 8, load_u64_le(in + 8));
    store_u64_le(out + 16, load_u64_le(in + 16));
    store_u64_le(out + 24, load_u64_le(in + 24));
    in += 32;
    out += 32;
    n -= 32;
  }
  while (n >= 8) {
    store_u64_le(out, load_u64_le(in));
    in += 8;
    out += 8;
    n -= 8;
  }
  if (n > 0) std::memcpy(out, in, n);
}

/// libc memcpy for reference (what a modern implementor would write).
inline void copy_memcpy(ConstBytes src, MutableBytes dst) noexcept {
  copy_bytes(dst.data(), src.data(), src.size());
}

}  // namespace ngp
