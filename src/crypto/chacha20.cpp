#include "crypto/chacha20.h"

#include <cstring>

namespace ngp {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) noexcept {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;  // little-endian hosts
}

void init_state(std::array<std::uint32_t, 16>& s, const ChaChaKey& k,
                std::uint32_t counter) noexcept {
  // "expand 32-byte k"
  s[0] = 0x61707865;
  s[1] = 0x3320646e;
  s[2] = 0x79622d32;
  s[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) s[4 + i] = load_le32(k.key.data() + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = load_le32(k.nonce.data() + 4 * i);
}

void block_from_state(const std::array<std::uint32_t, 16>& input,
                      std::array<std::uint32_t, 16>& out) noexcept {
  out = input;
  for (int round = 0; round < 10; ++round) {
    quarter_round(out[0], out[4], out[8], out[12]);
    quarter_round(out[1], out[5], out[9], out[13]);
    quarter_round(out[2], out[6], out[10], out[14]);
    quarter_round(out[3], out[7], out[11], out[15]);
    quarter_round(out[0], out[5], out[10], out[15]);
    quarter_round(out[1], out[6], out[11], out[12]);
    quarter_round(out[2], out[7], out[8], out[13]);
    quarter_round(out[3], out[4], out[9], out[14]);
  }
  for (int i = 0; i < 16; ++i) out[i] += input[i];
}

}  // namespace

void chacha20_block(const ChaChaKey& k, std::uint32_t counter,
                    std::array<std::uint8_t, 64>& out) noexcept {
  std::array<std::uint32_t, 16> s, b;
  init_state(s, k, counter);
  block_from_state(s, b);
  std::memcpy(out.data(), b.data(), 64);
}

void chacha20_xor(const ChaChaKey& k, std::uint32_t counter, MutableBytes data) noexcept {
  std::array<std::uint8_t, 64> ks;
  std::size_t off = 0;
  while (off < data.size()) {
    chacha20_block(k, counter++, ks);
    const std::size_t n = std::min<std::size_t>(64, data.size() - off);
    // Word-wise XOR of the block.
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      store_u64_le(data.data() + off + i,
                   load_u64_le(data.data() + off + i) ^ load_u64_le(ks.data() + i));
    }
    for (; i < n; ++i) data[off + i] ^= ks[i];
    off += n;
  }
}

void chacha20_keystream(const ChaChaKey& k, std::uint32_t counter,
                        MutableBytes out) noexcept {
  std::array<std::uint32_t, 16> s, b;
  init_state(s, k, counter);
  std::size_t off = 0;
  for (; off + 64 <= out.size(); off += 64, ++s[12]) {
    block_from_state(s, b);
    std::memcpy(out.data() + off, b.data(), 64);
  }
  if (off < out.size()) {
    block_from_state(s, b);
    std::memcpy(out.data() + off, b.data(), out.size() - off);
  }
}

ChaChaKeystream::ChaChaKeystream(const ChaChaKey& k, std::uint32_t counter) noexcept {
  init_state(state_, k, counter);
}

void ChaChaKeystream::refill() noexcept {
  std::array<std::uint32_t, 16> b;
  block_from_state(state_, b);
  ++state_[12];  // advance block counter
  std::memcpy(block_words_.data(), b.data(), 64);
  pos_ = 0;
}

std::uint8_t ChaChaKeystream::next_byte() noexcept {
  if (byte_pos_ == 0) current_ = next_word();
  const auto b = static_cast<std::uint8_t>(current_ >> (8 * byte_pos_));
  byte_pos_ = (byte_pos_ + 1) % 8;
  return b;
}

}  // namespace ngp
