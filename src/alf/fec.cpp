#include "alf/fec.h"

namespace ngp::alf {

void xor_into(MutableBytes dst, ConstBytes src) noexcept {
  std::size_t i = 0;
  while (i + 8 <= src.size()) {
    store_u64_le(dst.data() + i, load_u64_le(dst.data() + i) ^ load_u64_le(src.data() + i));
    i += 8;
  }
  for (; i < src.size(); ++i) dst[i] ^= src[i];
}

ByteBuffer compute_parity(ConstBytes adu_payload, const FecGroup& group) {
  ByteBuffer parity(group.parity_length());
  const std::size_t n = group.fragment_count();
  for (std::size_t i = 0; i < n; ++i) {
    xor_into(parity.span(),
             adu_payload.subspan(group.fragment_offset(i), group.fragment_length(i)));
  }
  return parity;
}

}  // namespace ngp::alf
