// Tests for src/checksum: RFC 1071 Internet checksum (all kernels),
// CRC-32, Fletcher, Adler, and the uniform dispatcher.
#include <gtest/gtest.h>

#include "checksum/checksum.h"
#include "util/rng.h"

namespace ngp {
namespace {

ByteBuffer random_bytes(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

// ---- Internet checksum -------------------------------------------------------

TEST(InternetChecksumTest, Rfc1071WorkedExample) {
  // RFC 1071 §3 example: words 0x0001 0xf203 0xf4f5 0xf6f7 sum to 0xddf2
  // (before complement) -> checksum = ~0xddf2 = 0x220d.
  std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum({data, 8}), 0x220d);
}

TEST(InternetChecksumTest, EmptyIsAllOnes) {
  EXPECT_EQ(internet_checksum({}), 0xFFFF);
}

TEST(InternetChecksumTest, OddByteZeroPadded) {
  std::uint8_t one[] = {0xAB};
  // Sum = 0xAB00; checksum = ~0xAB00 = 0x54FF.
  EXPECT_EQ(internet_checksum({one, 1}), 0x54FF);
}

TEST(InternetChecksumTest, AllThreeKernelsAgree) {
  for (std::size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u,
                          100u, 1000u, 4096u, 4097u}) {
    ByteBuffer b = random_bytes(len, 0x1000 + len);
    const auto want = internet_checksum(b.span());
    EXPECT_EQ(internet_checksum_bytewise(b.span()), want) << "len=" << len;
    EXPECT_EQ(internet_checksum_unrolled(b.span()), want) << "len=" << len;
  }
}

TEST(InternetChecksumTest, UnalignedViewsAgree) {
  ByteBuffer b = random_bytes(256, 42);
  for (std::size_t off : {1u, 2u, 3u, 5u, 7u}) {
    ConstBytes view = b.span().subspan(off, 97);
    EXPECT_EQ(internet_checksum_unrolled(view), internet_checksum(view)) << off;
  }
}

TEST(InternetChecksumTest, DetectsSingleBitFlip) {
  ByteBuffer b = random_bytes(128, 7);
  const auto before = internet_checksum(b.span());
  b[57] ^= 0x10;
  EXPECT_NE(internet_checksum(b.span()), before);
}

TEST(InternetChecksumTest, IncrementalMatchesOneShot) {
  ByteBuffer b = random_bytes(1000, 9);
  for (std::size_t cut : {0u, 1u, 2u, 499u, 500u, 999u, 1000u}) {
    InternetChecksum inc;
    inc.add(b.span().subspan(0, cut));
    inc.add(b.span().subspan(cut));
    EXPECT_EQ(inc.finish(), internet_checksum(b.span())) << "cut=" << cut;
  }
}

TEST(InternetChecksumTest, IncrementalManyOddChunks) {
  ByteBuffer b = random_bytes(777, 10);
  InternetChecksum inc;
  std::size_t pos = 0;
  const std::size_t chunks[] = {1, 3, 5, 7, 100, 333, 328};
  for (std::size_t c : chunks) {
    inc.add(b.span().subspan(pos, c));
    pos += c;
  }
  ASSERT_EQ(pos, 777u);
  EXPECT_EQ(inc.finish(), internet_checksum(b.span()));
}

TEST(InternetChecksumTest, CombineSubsumsEvenOffsets) {
  ByteBuffer b = random_bytes(600, 11);
  const auto first = internet_checksum(b.span().subspan(0, 200));
  const auto second = internet_checksum(b.span().subspan(200, 400));
  InternetChecksum inc;
  inc.combine(first, 200);
  inc.combine(second, 400);
  EXPECT_EQ(inc.finish(), internet_checksum(b.span()));
}

TEST(InternetChecksumTest, CombineHandlesOddLengthFragments) {
  ByteBuffer b = random_bytes(501, 12);
  const auto first = internet_checksum(b.span().subspan(0, 201));   // odd
  const auto second = internet_checksum(b.span().subspan(201, 300));
  InternetChecksum inc;
  inc.combine(first, 201);
  inc.combine(second, 300);
  EXPECT_EQ(inc.finish(), internet_checksum(b.span()));
}

TEST(InternetChecksumTest, VerifyTrailingChecksum) {
  ByteBuffer b = random_bytes(200, 13);  // even length
  const auto ck = internet_checksum(b.span());
  b.append(static_cast<std::uint8_t>(ck >> 8));
  b.append(static_cast<std::uint8_t>(ck));
  EXPECT_TRUE(internet_checksum_ok(b.span()));
  b[3] ^= 0x01;
  EXPECT_FALSE(internet_checksum_ok(b.span()));
}

TEST(InternetChecksumTest, VerifyRejectsTiny) {
  std::uint8_t one[] = {0x00};
  EXPECT_FALSE(internet_checksum_ok({one, 1}));
  EXPECT_FALSE(internet_checksum_ok({}));
}

// ---- CRC-32 -------------------------------------------------------------------

TEST(Crc32Test, CheckValue) {
  // The canonical CRC-32/ISO-HDLC check value.
  auto b = ByteBuffer::from_string("123456789");
  EXPECT_EQ(crc32(b.span()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32Test, Slice8MatchesBytewise) {
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 255u, 1024u, 1031u}) {
    ByteBuffer b = random_bytes(len, 0x2000 + len);
    EXPECT_EQ(crc32_update(0xFFFFFFFFu, b.span()) ^ 0xFFFFFFFFu, crc32(b.span()))
        << "len=" << len;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  ByteBuffer b = random_bytes(500, 77);
  Crc32 inc;
  inc.add(b.span().subspan(0, 123));
  inc.add(b.span().subspan(123, 377));
  EXPECT_EQ(inc.finish(), crc32(b.span()));
}

TEST(Crc32Test, ResetRestoresInitialState) {
  Crc32 inc;
  auto b = ByteBuffer::from_string("junk");
  inc.add(b.span());
  inc.reset();
  auto c = ByteBuffer::from_string("123456789");
  inc.add(c.span());
  EXPECT_EQ(inc.finish(), 0xCBF43926u);
}

TEST(Crc32Test, DetectsTransposition) {
  auto a = ByteBuffer::from_string("abcd");
  auto b = ByteBuffer::from_string("abdc");
  EXPECT_NE(crc32(a.span()), crc32(b.span()));
}

// ---- Fletcher -------------------------------------------------------------------

TEST(FletcherTest, Fletcher16KnownValues) {
  // Classic test vectors.
  auto a = ByteBuffer::from_string("abcde");
  EXPECT_EQ(fletcher16(a.span()), 0xC8F0);
  auto b = ByteBuffer::from_string("abcdef");
  EXPECT_EQ(fletcher16(b.span()), 0x2057);
  auto c = ByteBuffer::from_string("abcdefgh");
  EXPECT_EQ(fletcher16(c.span()), 0x0627);
}

TEST(FletcherTest, Fletcher32KnownValues) {
  auto a = ByteBuffer::from_string("abcde");
  EXPECT_EQ(fletcher32(a.span()), 0xF04FC729u);
  auto b = ByteBuffer::from_string("abcdef");
  EXPECT_EQ(fletcher32(b.span()), 0x56502D2Au);
  auto c = ByteBuffer::from_string("abcdefgh");
  EXPECT_EQ(fletcher32(c.span()), 0xEBE19591u);
}

TEST(FletcherTest, LargeInputNoOverflow) {
  // Exercise the deferred-modulo block boundary.
  ByteBuffer all_ff(20000);
  for (std::size_t i = 0; i < all_ff.size(); ++i) all_ff[i] = 0xFF;
  // Must terminate and produce stable values.
  const auto f16 = fletcher16(all_ff.span());
  const auto f32 = fletcher32(all_ff.span());
  EXPECT_EQ(f16, fletcher16(all_ff.span()));
  EXPECT_EQ(f32, fletcher32(all_ff.span()));
}

TEST(FletcherTest, IncrementalMatchesOneShot) {
  // Alternating 1- and 2-byte pieces, so odd bytes carry into the next
  // piece and every other one-byte piece only completes the carried word;
  // then one large piece across the deferred-modulo block boundary.
  ByteBuffer b = random_bytes(2000, 17);
  Fletcher32 f;
  std::size_t off = 0;
  for (std::size_t len = 1; off + len <= 301; len = 3 - len) {
    f.add(b.span().subspan(off, len));
    off += len;
  }
  f.add(b.span().subspan(off));
  EXPECT_EQ(f.finish(), fletcher32(b.span()));
  Fletcher32 odd;
  odd.add(b.span().subspan(0, 1999));
  EXPECT_EQ(odd.finish(), fletcher32(b.span().subspan(0, 1999)));
}

// ---- Adler ---------------------------------------------------------------------

TEST(AdlerTest, KnownValue) {
  // adler32("Wikipedia") == 0x11E60398 (well-known example).
  auto b = ByteBuffer::from_string("Wikipedia");
  EXPECT_EQ(adler32(b.span()), 0x11E60398u);
}

TEST(AdlerTest, EmptyIsOne) { EXPECT_EQ(adler32({}), 1u); }

TEST(AdlerTest, ContinueMatchesOneShot) {
  ByteBuffer b = random_bytes(9000, 5);  // crosses kMaxBlock
  const auto direct = adler32(b.span());
  auto state = adler32_continue(1, b.span().subspan(0, 4000));
  state = adler32_continue(state, b.span().subspan(4000));
  EXPECT_EQ(state, direct);
}

// ---- Dispatcher ----------------------------------------------------------------

TEST(ChecksumDispatch, AllKindsComputeAndDiffer) {
  ByteBuffer b = random_bytes(512, 99);
  EXPECT_EQ(compute_checksum(ChecksumKind::kNone, b.span()), 0u);
  const auto inet = compute_checksum(ChecksumKind::kInternet, b.span());
  const auto fl = compute_checksum(ChecksumKind::kFletcher32, b.span());
  const auto ad = compute_checksum(ChecksumKind::kAdler32, b.span());
  const auto crc = compute_checksum(ChecksumKind::kCrc32, b.span());
  EXPECT_EQ(inet, internet_checksum(b.span()));
  EXPECT_EQ(fl, fletcher32(b.span()));
  EXPECT_EQ(ad, adler32(b.span()));
  EXPECT_EQ(crc, crc32(b.span()));
}

TEST(ChecksumDispatch, WireSizes) {
  EXPECT_EQ(checksum_size(ChecksumKind::kNone), 0u);
  EXPECT_EQ(checksum_size(ChecksumKind::kInternet), 2u);
  EXPECT_EQ(checksum_size(ChecksumKind::kFletcher32), 4u);
  EXPECT_EQ(checksum_size(ChecksumKind::kAdler32), 4u);
  EXPECT_EQ(checksum_size(ChecksumKind::kCrc32), 4u);
}

TEST(ChecksumDispatch, Names) {
  EXPECT_EQ(checksum_kind_name(ChecksumKind::kInternet), "internet");
  EXPECT_EQ(checksum_kind_name(ChecksumKind::kCrc32), "crc32");
}

// Parameterized sweep: every algorithm detects a burst error at every
// offset bucket (the per-ADU integrity property ALF relies on).
class ChecksumDetectionTest
    : public ::testing::TestWithParam<std::tuple<ChecksumKind, std::size_t>> {};

TEST_P(ChecksumDetectionTest, DetectsBurstCorruption) {
  const auto [kind, offset] = GetParam();
  ByteBuffer b = random_bytes(1024, 1234);
  const auto before = compute_checksum(kind, b.span());
  for (std::size_t i = 0; i < 4; ++i) b[offset + i] ^= 0x5A;
  EXPECT_NE(compute_checksum(kind, b.span()), before);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllOffsets, ChecksumDetectionTest,
    ::testing::Combine(::testing::Values(ChecksumKind::kInternet,
                                         ChecksumKind::kFletcher32,
                                         ChecksumKind::kAdler32, ChecksumKind::kCrc32),
                       ::testing::Values(0u, 1u, 511u, 1020u)));

}  // namespace
}  // namespace ngp
