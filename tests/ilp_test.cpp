// Tests for src/ilp: the central ILP property — integrated (fused) and
// layered execution of any stage pipeline produce identical bytes and
// identical stage results — plus the individual stages and kernels.
#include <gtest/gtest.h>

#include <cstring>

#include "checksum/crc32.h"
#include "checksum/internet.h"
#include "crypto/chacha20.h"
#include "ilp/engine.h"
#include "ilp/kernels.h"
#include "ilp/runtime.h"
#include "ilp/stages.h"
#include "util/rng.h"

namespace ngp {
namespace {

ByteBuffer random_bytes(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

ChaChaKey test_key() {
  ChaChaKey k;
  for (int i = 0; i < 32; ++i) k.key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 3 + 1);
  for (int i = 0; i < 12; ++i) k.nonce[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x40 + i);
  return k;
}

// ---- Individual stages ---------------------------------------------------------

TEST(ChecksumStage, MatchesReferenceOnWordMultiple) {
  ByteBuffer b = random_bytes(256, 1);
  ChecksumStage s;
  ByteBuffer out(b.size());
  ilp_fused(b.span(), out.span(), s);
  EXPECT_EQ(s.result(), internet_checksum(b.span()));
  EXPECT_EQ(out, b);  // checksum does not mutate
}

TEST(ChecksumStage, MatchesReferenceOnOddTails) {
  for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u, 13u, 31u, 33u, 101u}) {
    ByteBuffer b = random_bytes(len, 100 + len);
    ChecksumStage s;
    ByteBuffer out(len);
    ilp_fused(b.span(), out.span(), s);
    EXPECT_EQ(s.result(), internet_checksum(b.span())) << "len=" << len;
  }
}

TEST(EncryptStage, MatchesChacha20Xor) {
  ChaChaKey k = test_key();
  for (std::size_t len : {8u, 64u, 65u, 100u, 1000u, 1003u}) {
    ByteBuffer b = random_bytes(len, 200 + len);
    ByteBuffer expect(b.span());
    chacha20_xor(k, 0, expect.span());

    EncryptStage s(k, 0);
    ByteBuffer out(len);
    ilp_fused(b.span(), out.span(), s);
    EXPECT_EQ(out, expect) << "len=" << len;
  }
}

TEST(EncryptStage, TailMaskKeepsPaddingZeroForDownstream) {
  // With a 5-byte tail, a downstream checksum must see zero padding, i.e.
  // fused decrypt+checksum must equal checksum(decrypted bytes).
  ChaChaKey k = test_key();
  ByteBuffer cipher = random_bytes(13, 7);
  ByteBuffer plain(cipher.span());
  chacha20_xor(k, 0, plain.span());

  EncryptStage dec(k, 0);
  ChecksumStage ck;
  ByteBuffer out(13);
  ilp_fused(cipher.span(), out.span(), dec, ck);
  EXPECT_EQ(out, plain);
  EXPECT_EQ(ck.result(), internet_checksum(plain.span()));
}

TEST(Byteswap32Stage, SwapsEveryElement) {
  ByteBuffer b(16);
  for (std::size_t i = 0; i < 16; ++i) b[i] = static_cast<std::uint8_t>(i);
  Byteswap32Stage s;
  ByteBuffer out(16);
  ilp_fused(b.span(), out.span(), s);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[3], 0);
  EXPECT_EQ(out[4], 7);
  EXPECT_EQ(out[15], 12);
}

TEST(Byteswap32Stage, IsAnInvolution) {
  ByteBuffer b = random_bytes(64, 3);
  Byteswap32Stage s1, s2;
  ByteBuffer once(64), twice(64);
  ilp_fused(b.span(), once.span(), s1);
  ilp_fused(once.span(), twice.span(), s2);
  EXPECT_EQ(twice, b);
}

TEST(Byteswap32Stage, FourByteTailSwapped) {
  ByteBuffer b(12);
  for (std::size_t i = 0; i < 12; ++i) b[i] = static_cast<std::uint8_t>(i);
  Byteswap32Stage s;
  ByteBuffer out(12);
  ilp_fused(b.span(), out.span(), s);
  EXPECT_EQ(out[8], 11);
  EXPECT_EQ(out[11], 8);
}

TEST(AppSumStage, SumsAllWords) {
  std::int32_t vals[] = {1, 2, 3, 4, 5, 6, 7};  // 28 bytes: 4-byte tail
  ConstBytes bytes{reinterpret_cast<const std::uint8_t*>(vals), sizeof(vals)};
  AppSumStage s;
  ByteBuffer out(sizeof(vals));
  ilp_fused(bytes, out.span(), s);
  EXPECT_EQ(s.result(), 28u);
}

TEST(Crc32Stage, MatchesReferenceAllLengths) {
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 100u, 1000u, 1003u}) {
    ByteBuffer b = random_bytes(len, 10 + len);
    Crc32Stage s;
    ByteBuffer out(len);
    ilp_fused(b.span(), out.span(), s);
    EXPECT_EQ(s.result(), crc32(b.span())) << "len=" << len;
    EXPECT_EQ(out, b);
  }
}

TEST(Crc32Stage, WordUpdateMatchesByteUpdates) {
  // Direct check of the exported helpers.
  ByteBuffer b = random_bytes(8, 1);
  std::uint32_t via_word = 0xFFFFFFFFu;
  via_word = crc32_update_word(via_word, load_u64_le(b.data()));
  EXPECT_EQ(via_word ^ 0xFFFFFFFFu, crc32(b.span()));

  ByteBuffer c = random_bytes(5, 2);
  std::uint32_t via_tail = 0xFFFFFFFFu;
  std::uint64_t w = 0;
  std::memcpy(&w, c.data(), 5);
  via_tail = crc32_update_tail(via_tail, w, 5);
  EXPECT_EQ(via_tail ^ 0xFFFFFFFFu, crc32(c.span()));
}

TEST(Crc32Stage, FusedWithDecryptEqualsSeparate) {
  ChaChaKey k;
  k.key[0] = 9;
  ByteBuffer plain = random_bytes(777, 3);
  ByteBuffer cipher(plain.span());
  chacha20_xor(k, 0, cipher.span());

  EncryptStage dec(k, 0);
  Crc32Stage crc;
  ByteBuffer out(cipher.size());
  ilp_fused(cipher.span(), out.span(), dec, crc);
  EXPECT_EQ(out, plain);
  EXPECT_EQ(crc.result(), crc32(plain.span()));
}

// ---- Fused == layered (the ILP correctness property) -----------------------------

TEST(IlpEquivalence, ChecksumOnly) {
  for (std::size_t len : {0u, 1u, 8u, 9u, 64u, 100u, 4000u}) {
    ByteBuffer src = random_bytes(len, 300 + len);
    ByteBuffer a(len), b(len);
    ChecksumStage s1, s2;
    ilp_fused(src.span(), a.span(), s1);
    ilp_layered(src.span(), b.span(), s2);
    EXPECT_EQ(a, b) << len;
    EXPECT_EQ(s1.result(), s2.result()) << len;
  }
}

TEST(IlpEquivalence, EncryptChecksum) {
  ChaChaKey k = test_key();
  for (std::size_t len : {8u, 12u, 64u, 333u, 4000u}) {
    ByteBuffer src = random_bytes(len, 400 + len);
    ByteBuffer a(len), b(len);
    EncryptStage e1(k, 2);
    ChecksumStage c1;
    ilp_fused(src.span(), a.span(), e1, c1);
    EncryptStage e2(k, 2);
    ChecksumStage c2;
    ilp_layered(src.span(), b.span(), e2, c2);
    EXPECT_EQ(a, b) << len;
    EXPECT_EQ(c1.result(), c2.result()) << len;
  }
}

TEST(IlpEquivalence, FourStagePipeline) {
  ChaChaKey k = test_key();
  for (std::size_t len : {16u, 64u, 1024u, 1028u}) {
    ByteBuffer src = random_bytes(len, 500 + len);
    ByteBuffer a(len), b(len);
    ChecksumStage pre1, pre2;
    EncryptStage e1(k, 1), e2(k, 1);
    Byteswap32Stage bs1, bs2;
    AppSumStage sum1, sum2;
    ilp_fused(src.span(), a.span(), pre1, e1, bs1, sum1);
    ilp_layered(src.span(), b.span(), pre2, e2, bs2, sum2);
    EXPECT_EQ(a, b) << len;
    EXPECT_EQ(pre1.result(), pre2.result()) << len;
    EXPECT_EQ(sum1.result(), sum2.result()) << len;
  }
}

TEST(IlpEquivalence, StageOrderMatters) {
  // checksum-then-encrypt != encrypt-then-checksum (different observed
  // bytes): the framework must preserve left-to-right order.
  ChaChaKey k = test_key();
  ByteBuffer src = random_bytes(128, 6);
  ChecksumStage pre;
  EncryptStage e1(k, 0);
  ByteBuffer out1(128);
  ilp_fused(src.span(), out1.span(), pre, e1);

  EncryptStage e2(k, 0);
  ChecksumStage post;
  ByteBuffer out2(128);
  ilp_fused(src.span(), out2.span(), e2, post);

  EXPECT_EQ(out1, out2);  // same bytes written...
  EXPECT_EQ(pre.result(), internet_checksum(src.span()));
  EXPECT_EQ(post.result(), internet_checksum(out2.span()));
  EXPECT_NE(pre.result(), post.result());  // ...different sums observed
}

TEST(IlpEngine, ZeroStagesIsPureCopy) {
  ByteBuffer src = random_bytes(777, 8);
  ByteBuffer dst(777);
  ilp_fused(src.span(), dst.span());
  EXPECT_EQ(dst, src);
}

TEST(IlpEngine, InPlaceOperationSupported) {
  ChaChaKey k = test_key();
  ByteBuffer buf = random_bytes(256, 9);
  ByteBuffer expect(buf.span());
  chacha20_xor(k, 0, expect.span());
  EncryptStage e(k, 0);
  ilp_fused(buf.span(), buf.span(), e);
  EXPECT_EQ(buf, expect);
}

// ---- Kernels -----------------------------------------------------------------------

TEST(Kernels, AllCopiesAgree) {
  for (std::size_t len : {0u, 1u, 7u, 8u, 31u, 32u, 33u, 1000u}) {
    ByteBuffer src = random_bytes(len, 600 + len);
    ByteBuffer a(len), b(len), c(len);
    copy_bytewise(src.span(), a.span());
    copy_unrolled(src.span(), b.span());
    copy_memcpy(src.span(), c.span());
    EXPECT_EQ(a, src) << len;
    EXPECT_EQ(b, src) << len;
    EXPECT_EQ(c, src) << len;
  }
}

// ---- Runtime ("interpreted") pipeline -----------------------------------------------

TEST(RuntimePipeline, MatchesCompiledPipeline) {
  ChaChaKey k = test_key();
  ByteBuffer src = random_bytes(512, 10);

  // Compiled.
  EncryptStage e(k, 4);
  ChecksumStage c;
  ByteBuffer compiled(512);
  ilp_fused(src.span(), compiled.span(), e, c);

  // Interpreted.
  RuntimePipeline p;
  p.push(make_runtime_encrypt(k, 4));
  p.push(make_runtime_checksum());
  ByteBuffer interpreted(512);
  p.run(src.span(), interpreted.span());

  EXPECT_EQ(interpreted, compiled);
  EXPECT_EQ(p.stage(1).result(), c.result());
}

TEST(RuntimePipeline, StageNamesAndResults) {
  RuntimePipeline p;
  p.push(make_runtime_byteswap32());
  p.push(make_runtime_app_sum());
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.stage(0).name(), "byteswap32");
  EXPECT_EQ(p.stage(1).name(), "app_sum");

  std::int32_t vals[] = {0x01000000, 0x02000000};  // byteswap -> 1, 2
  ConstBytes bytes{reinterpret_cast<const std::uint8_t*>(vals), sizeof(vals)};
  ByteBuffer out(sizeof(vals));
  p.run(bytes, out.span());
  EXPECT_EQ(p.stage(0).result(), 0u);  // mutating stage has no result
  EXPECT_EQ(p.stage(1).result(), 3u);
}

TEST(RuntimePipeline, EmptyPipelineCopies) {
  RuntimePipeline p;
  ByteBuffer src = random_bytes(100, 11);
  ByteBuffer dst(100);
  auto window = p.run(src.span(), dst.span());
  EXPECT_EQ(window.size(), 100u);
  EXPECT_EQ(dst, src);
}

// Parameterized: equivalence holds across a grid of lengths including all
// tail residues (the property the benches rely on to be meaningful).
class IlpTailSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IlpTailSweep, FusedEqualsLayeredAllResidues) {
  const std::size_t base = GetParam();
  ChaChaKey k = test_key();
  for (std::size_t residue = 0; residue < 8; ++residue) {
    const std::size_t len = base + residue;
    ByteBuffer src = random_bytes(len, 700 + len);
    ByteBuffer a(len), b(len);
    EncryptStage e1(k, 3), e2(k, 3);
    ChecksumStage c1, c2;
    AppSumStage s1, s2;
    ilp_fused(src.span(), a.span(), e1, c1, s1);
    ilp_layered(src.span(), b.span(), e2, c2, s2);
    ASSERT_EQ(a, b) << "len=" << len;
    ASSERT_EQ(c1.result(), c2.result()) << "len=" << len;
    ASSERT_EQ(s1.result(), s2.result()) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IlpTailSweep,
                         ::testing::Values(8u, 32u, 64u, 256u, 1024u, 4096u));

}  // namespace
}  // namespace ngp
