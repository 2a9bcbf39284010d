#include "checksum/crc32.h"

#include <array>

namespace ngp {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

struct Tables {
  // t[0] is the classic byte table; t[1..7] extend it for slice-by-8.
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

constexpr Tables kTables{};

std::uint32_t update_bytewise(std::uint32_t crc, ConstBytes data) noexcept {
  for (std::uint8_t b : data) {
    crc = kTables.t[0][(crc ^ b) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

/// One slice-by-8 step. The state xors only the word's low 4 bytes, so
/// the high 4 bytes' lookups do not wait on it: folding them apart keeps
/// the loop-carried chain one lookup and three XORs deep.
inline std::uint32_t update_word(std::uint32_t state, std::uint64_t word) noexcept {
  const auto hi = static_cast<std::uint32_t>(word >> 32);
  const std::uint32_t ahead =
      kTables.t[3][hi & 0xFF] ^ kTables.t[2][(hi >> 8) & 0xFF] ^
      kTables.t[1][(hi >> 16) & 0xFF] ^ kTables.t[0][hi >> 24];
  const std::uint32_t lo = static_cast<std::uint32_t>(word) ^ state;
  return (kTables.t[7][lo & 0xFF] ^ kTables.t[6][(lo >> 8) & 0xFF]) ^
         (kTables.t[5][(lo >> 16) & 0xFF] ^ kTables.t[4][lo >> 24]) ^ ahead;
}

}  // namespace

std::uint32_t crc32(ConstBytes data) noexcept {
  return update_bytewise(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_update(std::uint32_t state, ConstBytes data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) state = update_word(state, load_u64_le(p));
  return update_bytewise(state, {p, n});
}

void Crc32::add(ConstBytes data) noexcept { state_ = update_bytewise(state_, data); }

std::uint32_t crc32_update_word(std::uint32_t state, std::uint64_t word) noexcept {
  return update_word(state, word);
}

std::uint32_t crc32_update_tail(std::uint32_t state, std::uint64_t word,
                                std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<std::uint8_t>(word >> (8 * i));
    state = kTables.t[0][(state ^ b) & 0xFF] ^ (state >> 8);
  }
  return state;
}

}  // namespace ngp
