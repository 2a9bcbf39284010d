#include "checksum/fletcher.h"

namespace ngp {

std::uint16_t fletcher16(ConstBytes data) noexcept {
  std::uint32_t a = 0, b = 0;
  std::size_t i = 0;
  const std::size_t n = data.size();
  while (i < n) {
    // Largest block before a could overflow 32 bits: 5802 bytes (classic
    // deferred-modulo optimization).
    std::size_t block = std::min<std::size_t>(n - i, 5802);
    for (std::size_t k = 0; k < block; ++k) {
      a += data[i + k];
      b += a;
    }
    a %= 255;
    b %= 255;
    i += block;
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

void Fletcher32::add(ConstBytes data) noexcept {
  // Locals, not members, in the loop: the byte loads could alias them.
  std::uint32_t a = a_, b = b_;
  std::size_t i = 0;
  if (carry_ >= 0 && !data.empty()) {
    a += static_cast<std::uint32_t>(carry_) | (std::uint32_t{data[0]} << 8);
    b += a;
    a %= 65535;
    b %= 65535;
    carry_ = -1;
    i = 1;
  }
  const std::size_t whole = i + (data.size() - i) / 2 * 2;
  while (i < whole) {
    // 359 words is the largest block before b could overflow 32 bits.
    std::size_t block = std::min<std::size_t>(whole - i, 359 * 2);
    for (std::size_t k = 0; k < block; k += 2) {
      a += std::uint32_t{data[i + k]} | (std::uint32_t{data[i + k + 1]} << 8);
      b += a;
    }
    a %= 65535;
    b %= 65535;
    i += block;
  }
  if (i < data.size()) carry_ = data[i];
  a_ = a;
  b_ = b;
}

std::uint32_t Fletcher32::finish() const noexcept {
  std::uint32_t a = a_, b = b_;
  if (carry_ >= 0) {  // odd total length: the last word's high byte is zero
    a += static_cast<std::uint32_t>(carry_);
    b += a;
    a %= 65535;
    b %= 65535;
  }
  return (b << 16) | a;
}

std::uint32_t fletcher32(ConstBytes data) noexcept {
  Fletcher32 f;
  f.add(data);
  return f.finish();
}

}  // namespace ngp
