// Tests for src/crypto: ChaCha20 against RFC 8439 vectors plus the
// streaming keystream used by the ILP fused loops.
#include <gtest/gtest.h>

#include "crypto/chacha20.h"
#include "util/rng.h"

namespace ngp {
namespace {

ChaChaKey rfc8439_key() {
  ChaChaKey k;
  for (int i = 0; i < 32; ++i) k.key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  // Nonce 00:00:00:09:00:00:00:4a:00:00:00:00
  k.nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  return k;
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2: key 00..1f, nonce ..09....4a.., counter 1.
  std::array<std::uint8_t, 64> out{};
  chacha20_block(rfc8439_key(), 1, out);
  const auto expect = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4"
      "c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2"
      "b5129cd1de164eb9cbd083e8a2503c4e");
  ASSERT_EQ(expect.size(), 64u);
  EXPECT_EQ(to_hex({out.data(), 64}), to_hex(expect.span()));
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 §2.4.2: the "sunscreen" plaintext, counter 1.
  ChaChaKey k;
  for (int i = 0; i < 32; ++i) k.key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  k.nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  auto plaintext = ByteBuffer::from_string(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  ByteBuffer buf(plaintext.span());
  chacha20_xor(k, 1, buf.span());
  const auto expect_prefix = from_hex(
      "6e2e359a2568f98041ba0728dd0d6981"
      "e97e7aec1d4360c20a27afccfd9fae0b");
  EXPECT_EQ(to_hex(buf.span().subspan(0, 32)), to_hex(expect_prefix.span()));
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  ChaChaKey k = rfc8439_key();
  Rng rng(1);
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 500u, 4096u}) {
    ByteBuffer original(len);
    rng.fill(original.span());
    ByteBuffer buf(original.span());
    chacha20_xor(k, 7, buf.span());
    if (len > 16) {
      EXPECT_NE(buf, original) << len;
    }
    chacha20_xor(k, 7, buf.span());
    EXPECT_EQ(buf, original) << len;
  }
}

TEST(ChaCha20, DifferentCountersDiffer) {
  ChaChaKey k = rfc8439_key();
  ByteBuffer a(64), b(64);
  chacha20_xor(k, 0, a.span());
  chacha20_xor(k, 1, b.span());
  EXPECT_NE(a, b);
}

TEST(ChaCha20, DifferentNoncesDiffer) {
  ChaChaKey k1 = rfc8439_key();
  ChaChaKey k2 = rfc8439_key();
  k2.nonce[11] = 0xFF;
  ByteBuffer a(64), b(64);
  chacha20_xor(k1, 0, a.span());
  chacha20_xor(k2, 0, b.span());
  EXPECT_NE(a, b);
}

TEST(ChaChaKeystreamTest, WordsMatchBlockFunction) {
  ChaChaKey k = rfc8439_key();
  ChaChaKeystream ks(k, 1);
  std::array<std::uint8_t, 64> block{};
  chacha20_block(k, 1, block);
  for (int w = 0; w < 8; ++w) {
    EXPECT_EQ(ks.next_word(), load_u64_le(block.data() + 8 * w)) << w;
  }
  // Next word comes from counter 2.
  chacha20_block(k, 2, block);
  EXPECT_EQ(ks.next_word(), load_u64_le(block.data()));
}

TEST(ChaChaKeystreamTest, XorWithKeystreamEqualsChacha20Xor) {
  ChaChaKey k = rfc8439_key();
  Rng rng(3);
  ByteBuffer data(256);
  rng.fill(data.span());
  ByteBuffer expect(data.span());
  chacha20_xor(k, 5, expect.span());

  ChaChaKeystream ks(k, 5);
  ByteBuffer got(data.span());
  for (std::size_t i = 0; i < got.size(); i += 8) {
    store_u64_le(got.data() + i, load_u64_le(got.data() + i) ^ ks.next_word());
  }
  EXPECT_EQ(got, expect);
}

TEST(ChaChaKeystreamTest, NextByteConsistentWithWords) {
  ChaChaKey k = rfc8439_key();
  ChaChaKeystream a(k, 9), b(k, 9);
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t w = a.next_word();
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(b.next_byte(), static_cast<std::uint8_t>(w >> (8 * j)));
    }
  }
}

TEST(ChaCha20, KeystreamIsNotTriviallyBiased) {
  ChaChaKey k = rfc8439_key();
  ByteBuffer zeros(1 << 16);
  chacha20_xor(k, 0, zeros.span());
  std::size_t ones = 0;
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    ones += static_cast<std::size_t>(__builtin_popcount(zeros[i]));
  }
  const double frac = static_cast<double>(ones) / (static_cast<double>(zeros.size()) * 8);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

}  // namespace
}  // namespace ngp
