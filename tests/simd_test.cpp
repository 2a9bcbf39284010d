// simd_test.cpp — kernel-equivalence property tests for ngp::simd.
//
// The dispatch layer's contract (dispatch.h): every compiled-in tier
// produces byte-identical outputs and identical checksum results to the
// scalar tier, for every size and alignment, and the obs::CostAccount
// ledger recorded by callers is tier-independent. These tests pin that
// contract: they sweep all available tiers against the scalar table over
// exhaustive small sizes, random large sizes to 4096, and all 64 source
// alignments, then sweep run_manipulation_chain over one-segment chains
// across tiers comparing outputs AND ledgers. The suite also runs under
// NGP_FORCE_KERNEL_TIER=scalar, =avx2 and =best via dedicated ctest
// entries (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "buf/chain.h"
#include "buf/chain_ops.h"
#include "buf/pool.h"
#include "crypto/chacha20.h"
#include "ilp/engine.h"
#include "ilp/pipeline.h"
#include "ilp/stages.h"
#include "obs/cost.h"
#include "simd/dispatch.h"
#include "simd/keystream.h"
#include "util/bytes.h"

namespace ngp {
namespace {

std::vector<const simd::KernelTable*> available_tiers() {
  std::vector<const simd::KernelTable*> out;
  for (std::size_t i = 0; i < simd::kKernelTierCount; ++i) {
    if (const auto* t = simd::tier_table(static_cast<simd::KernelTier>(i))) {
      out.push_back(t);
    }
  }
  return out;
}

ChaChaKey test_key() {
  ChaChaKey k;
  for (std::size_t i = 0; i < k.key.size(); ++i) {
    k.key[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  for (std::size_t i = 0; i < k.nonce.size(); ++i) {
    k.nonce[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  return k;
}

/// Deterministic pseudo-random backing store, over-allocated so any
/// (offset, size) window up to 64+4096 fits.
std::vector<std::uint8_t> random_backing(std::uint32_t seed, std::size_t n = 64 + 4096) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

/// `data` as a chain of one pool segment, the shape a flat buffer or a
/// one-fragment ADU reaches the receive pass in.
buf::BufChain one_segment(ConstBytes data) {
  buf::BufRef seg = buf::default_pool().alloc(data.size());
  if (!data.empty()) std::memcpy(seg.data(), data.data(), data.size());
  buf::BufChain chain;
  chain.append(buf::Slice{std::move(seg), 0, data.size()});
  return chain;
}

std::vector<std::uint8_t> bytes_of(const buf::BufChain& chain) {
  std::vector<std::uint8_t> out(chain.size());
  chain.copy_out(MutableBytes{out.data(), out.size()});
  return out;
}

/// The (size, src-alignment) sweep: exhaustive sizes 0..300 over a handful
/// of alignments, all 64 alignments over a size subset, plus random
/// (size, align) pairs up to 4096 bytes.
std::vector<std::pair<std::size_t, std::size_t>> sweep_cases() {
  std::vector<std::pair<std::size_t, std::size_t>> cases;
  for (std::size_t n = 0; n <= 300; ++n) {
    for (std::size_t a : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{8}, std::size_t{33}, std::size_t{63}}) {
      cases.emplace_back(n, a);
    }
  }
  for (std::size_t a = 0; a < 64; ++a) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                          std::size_t{7}, std::size_t{31}, std::size_t{64},
                          std::size_t{129}, std::size_t{1000}}) {
      cases.emplace_back(n, a);
    }
  }
  std::mt19937 rng(0xC1E5u);
  for (int i = 0; i < 64; ++i) {
    cases.emplace_back(rng() % 4097, rng() % 64);
  }
  return cases;
}

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial) continuing a raw
/// state: a reference that shares no table or code with any tier.
std::uint32_t crc32_bitwise(std::uint32_t state, ConstBytes data) {
  for (std::uint8_t b : data) {
    state ^= b;
    for (int k = 0; k < 8; ++k) state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
  }
  return state;
}

/// Restores the entry-time active tier on destruction so in-process tier
/// sweeps cannot leak into other tests.
struct TierGuard {
  simd::KernelTier saved = simd::active_tier();
  ~TierGuard() { simd::set_active_tier(saved); }
};

TEST(SimdDispatch, ScalarTableAlwaysAvailable) {
  const auto* scalar = simd::tier_table(simd::KernelTier::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_STREQ(scalar->name, "scalar");
  // The active table is one of the compiled-in tables.
  const auto* active = simd::tier_table(simd::active_tier());
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active, &simd::kernels());
  // best_tier() is always available (it is what detection picked).
  EXPECT_NE(simd::tier_table(simd::best_tier()), nullptr);
}

TEST(SimdDispatch, EveryTierIsNamedAndTheWidestWins) {
  const char* const names[] = {"scalar", "sse", "avx2", "neon", "avx512"};
  static_assert(std::size(names) == simd::kKernelTierCount);
  for (std::size_t i = 0; i < simd::kKernelTierCount; ++i) {
    const auto tier = static_cast<simd::KernelTier>(i);
    EXPECT_STREQ(simd::tier_name(tier), names[i]);
    if (const auto* t = simd::tier_table(tier)) {
      EXPECT_EQ(t->tier, tier);
      EXPECT_STREQ(t->name, names[i]);
    }
  }
#if defined(__x86_64__) || defined(__i386__)
  // Detection prefers AVX-512 exactly when the host admits it.
  EXPECT_EQ(simd::best_tier() == simd::KernelTier::kAvx512,
            simd::tier_table(simd::KernelTier::kAvx512) != nullptr);
#endif
}

TEST(SimdDispatch, SetActiveTierRoundTrips) {
  TierGuard guard;
  for (const auto* t : available_tiers()) {
    ASSERT_TRUE(simd::set_active_tier(t->tier)) << t->name;
    EXPECT_EQ(simd::active_tier(), t->tier);
    EXPECT_EQ(&simd::kernels(), t);
  }
}

TEST(SimdKernels, ChecksumsMatchScalarAllSizesAndAlignments) {
  const auto* scalar = simd::tier_table(simd::KernelTier::kScalar);
  ASSERT_NE(scalar, nullptr);
  const auto backing = random_backing(1);
  for (const auto* t : available_tiers()) {
    if (t == scalar) continue;
    for (const auto& [n, a] : sweep_cases()) {
      const ConstBytes src{backing.data() + a, n};
      EXPECT_EQ(t->internet_checksum(src), scalar->internet_checksum(src))
          << t->name << " inet n=" << n << " a=" << a;
      EXPECT_EQ(t->fletcher32(src), scalar->fletcher32(src))
          << t->name << " fletcher n=" << n << " a=" << a;
      EXPECT_EQ(t->adler32(src), scalar->adler32(src))
          << t->name << " adler n=" << n << " a=" << a;
    }
  }

  // crc32 continues a raw state, so every tier, the scalar one included,
  // is checked against the bitwise reference from three states, and the
  // finished default-state value against the bytewise ngp::crc32.
  std::mt19937 rng(0x5EED);
  const std::uint32_t states[] = {simd::kCrc32Init, 0u,
                                  static_cast<std::uint32_t>(rng())};
  for (const auto& [n, a] : sweep_cases()) {
    const ConstBytes src{backing.data() + a, n};
    ASSERT_EQ(crc32_bitwise(simd::kCrc32Init, src) ^ simd::kCrc32Init, crc32(src))
        << "reference n=" << n;
    for (std::uint32_t s : states) {
      const std::uint32_t want = crc32_bitwise(s, src);
      for (const auto* t : available_tiers()) {
        EXPECT_EQ(t->crc32(s, src), want)
            << t->name << " crc state=" << s << " n=" << n << " a=" << a;
      }
    }
  }

  // Continuation across the fold's 64-byte lanes and the fused passes'
  // 2 KiB pieces: crc32(crc32(s, a), b) == crc32(s, a‖b).
  for (std::size_t len : {std::size_t{200}, std::size_t{2100}, std::size_t{4096}}) {
    const ConstBytes whole{backing.data() + 3, len};
    for (std::size_t cut : {63u, 64u, 65u, 127u, 128u, 129u, 2047u, 2048u, 2049u}) {
      if (cut > len) continue;
      for (const auto* t : available_tiers()) {
        for (std::uint32_t s : states) {
          EXPECT_EQ(t->crc32(t->crc32(s, whole.first(cut)), whole.subspan(cut)),
                    t->crc32(s, whole))
              << t->name << " state=" << s << " len=" << len << " cut=" << cut;
        }
        EXPECT_EQ(t->crc32(t->crc32(simd::kCrc32Init, whole.first(cut)),
                           whole.subspan(cut)) ^
                      simd::kCrc32Init,
                  crc32(whole))
            << t->name << " len=" << len << " cut=" << cut;
      }
    }
  }
}

TEST(SimdKernels, InPlaceKernelsMatchScalar) {
  const auto* scalar = simd::tier_table(simd::KernelTier::kScalar);
  const auto backing = random_backing(3);
  const ChaChaKey key = test_key();
  for (const auto* t : available_tiers()) {
    for (const auto& [n, a] : sweep_cases()) {
      std::vector<std::uint8_t> want(backing.begin() + static_cast<std::ptrdiff_t>(a),
                                     backing.begin() + static_cast<std::ptrdiff_t>(a + n));
      std::vector<std::uint8_t> got = want;
      // simd::chacha20_xor (the tier's generator through the keystream
      // cursor, then xor_keystream) against the cipher itself, every tier.
      chacha20_xor(key, 0, MutableBytes{want.data(), n});
      simd::chacha20_xor(*t, key, MutableBytes{got.data(), n});
      ASSERT_EQ(want, got) << t->name << " chacha n=" << n << " a=" << a;
      if (t == scalar) continue;
      // byteswap32 (including the exact-4-byte-tail rule).
      scalar->byteswap32(MutableBytes{want.data(), n});
      t->byteswap32(MutableBytes{got.data(), n});
      ASSERT_EQ(want, got) << t->name << " byteswap n=" << n << " a=" << a;
    }
  }
}

TEST(SimdKernels, FusedKernelsMatchScalar) {
  const auto* scalar = simd::tier_table(simd::KernelTier::kScalar);
  const auto backing = random_backing(4);
  const ChaChaKey key = test_key();
  std::vector<std::uint8_t> ks(4096 + 64);
  scalar->chacha20_keystream(key, 0, MutableBytes{ks.data(), ks.size()});
  for (const auto* t : available_tiers()) {
    if (t == scalar) continue;
    for (const auto& [n, a] : sweep_cases()) {
      const ConstBytes src{backing.data() + a, n};
      const ConstBytes keystream{ks.data(), n};
      // checksum + byteswap, then xor [+ checksum [+ byteswap]].
      std::vector<std::uint8_t> want(src.begin(), src.end());
      std::vector<std::uint8_t> got = want;
      ASSERT_EQ(scalar->checksum_byteswap(MutableBytes{want.data(), n}),
                t->checksum_byteswap(MutableBytes{got.data(), n}))
          << t->name << " cksum_swap n=" << n << " a=" << a;
      ASSERT_EQ(want, got) << t->name << " cksum_swap n=" << n << " a=" << a;
      ASSERT_EQ(scalar->xor_internet_checksum(keystream, MutableBytes{want.data(), n}),
                t->xor_internet_checksum(keystream, MutableBytes{got.data(), n}))
          << t->name << " xor_cksum n=" << n << " a=" << a;
      ASSERT_EQ(want, got) << t->name << " xor_cksum n=" << n << " a=" << a;
      ASSERT_EQ(scalar->xor_checksum_byteswap(keystream, MutableBytes{want.data(), n}),
                t->xor_checksum_byteswap(keystream, MutableBytes{got.data(), n}))
          << t->name << " xor_cksum_swap n=" << n << " a=" << a;
      ASSERT_EQ(want, got) << t->name << " xor_cksum_swap n=" << n << " a=" << a;
      scalar->xor_keystream(keystream, MutableBytes{want.data(), n});
      t->xor_keystream(keystream, MutableBytes{got.data(), n});
      ASSERT_EQ(want, got) << t->name << " xor n=" << n << " a=" << a;
    }
  }
}

// The keystream family against the scalar tier and the cipher itself:
// every length to 300 bytes, then lengths around each 64-byte block end
// to 2,213 (partial blocks, whole and partial vector batches, past two
// 1,024-byte AVX-512 batches and a partial block), from counters that
// start mid-range and 7 blocks short of 2^32, so the vector lanes must
// wrap exactly as the scalar counter++ does, inside one 16-lane batch;
// then the (data, keystream) kernels over every source misalignment 0-7
// with keystream taken at offsets that are not multiples of 64 (a piece
// that starts mid-block, as a chain segment does).
TEST(SimdKernels, KeystreamFamilyMatchesScalar) {
  const auto* scalar = simd::tier_table(simd::KernelTier::kScalar);
  const ChaChaKey key = test_key();
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 300; ++n) sizes.push_back(n);
  for (std::size_t end = 320; end <= 2176; end += 64) {
    for (std::size_t n : {end - 1, end, end + 1, end + 37}) sizes.push_back(n);
  }
  const std::size_t kMax = sizes.back();
  for (const auto* t : available_tiers()) {
    for (std::uint32_t counter : {0u, 5u, 0xFFFFFFF9u}) {
      std::vector<std::uint8_t> cipher(kMax, 0);
      chacha20_xor(key, counter, MutableBytes{cipher.data(), kMax});
      for (std::size_t n : sizes) {
        std::vector<std::uint8_t> got(n + 64, 0xEE);
        t->chacha20_keystream(key, counter, MutableBytes{got.data(), n});
        ASSERT_TRUE(std::equal(cipher.begin(), cipher.begin() + static_cast<std::ptrdiff_t>(n),
                               got.begin()))
            << t->name << " keystream n=" << n << " ctr=" << counter;
        ASSERT_TRUE(std::all_of(got.begin() + static_cast<std::ptrdiff_t>(n), got.end(),
                                [](std::uint8_t b) { return b == 0xEE; }))
            << t->name << " keystream wrote past n=" << n << " ctr=" << counter;
      }
    }
    if (t == scalar) continue;

    const auto backing = random_backing(7, 8 + kMax);
    std::vector<std::uint8_t> ks(kMax + 128);
    scalar->chacha20_keystream(key, 0xFFFFFFF9u, MutableBytes{ks.data(), ks.size()});
    for (std::size_t n : sizes) {
      for (std::size_t a = 0; a < 8; ++a) {
        for (std::size_t off : {std::size_t{0}, std::size_t{5}, std::size_t{71}}) {
          const ConstBytes keystream{ks.data() + off, n};
          std::vector<std::uint8_t> want(backing.begin() + static_cast<std::ptrdiff_t>(a),
                                         backing.begin() + static_cast<std::ptrdiff_t>(a + n));
          std::vector<std::uint8_t> got = want;
          scalar->xor_keystream(keystream, MutableBytes{want.data(), n});
          t->xor_keystream(keystream, MutableBytes{got.data(), n});
          ASSERT_EQ(want, got) << t->name << " xor n=" << n << " a=" << a << " off=" << off;
          ASSERT_EQ(scalar->xor_internet_checksum(keystream, MutableBytes{want.data(), n}),
                    t->xor_internet_checksum(keystream, MutableBytes{got.data(), n}))
              << t->name << " xor_cksum n=" << n << " a=" << a << " off=" << off;
          ASSERT_EQ(want, got)
              << t->name << " xor_cksum n=" << n << " a=" << a << " off=" << off;
          ASSERT_EQ(scalar->xor_checksum_byteswap(keystream, MutableBytes{want.data(), n}),
                    t->xor_checksum_byteswap(keystream, MutableBytes{got.data(), n}))
              << t->name << " xor_cksum_swap n=" << n << " a=" << a << " off=" << off;
          ASSERT_EQ(want, got)
              << t->name << " xor_cksum_swap n=" << n << " a=" << a << " off=" << off;
        }
      }
    }
  }
}

// The cursor hands out the cipher's own keystream in stream order for any
// run of request sizes: short ones that leave most of a refill over, ones
// that end one short of, exactly on or one past a 1,024-byte batch, and
// ones longer than its 2,048-byte buffer; the last refill stops at the
// pass's end.
TEST(SimdKernels, KeystreamCursorHandsOutTheStreamInOrder) {
  const ChaChaKey key = test_key();
  const std::size_t wants[] = {1,   3,   700,  64,   2048, 2049, 5,
                               511, 1023, 1024, 1025, 1446, 4096, 90};
  for (const auto* t : available_tiers()) {
    for (std::size_t total : {std::size_t{1}, std::size_t{1100}, std::size_t{16388}}) {
      std::vector<std::uint8_t> cipher(total, 0);
      chacha20_xor(key, 0, MutableBytes{cipher.data(), total});
      simd::KeystreamCursor cursor(*t, &key, total);
      std::vector<std::uint8_t> got;
      for (std::size_t i = 0; got.size() < total; ++i) {
        const std::size_t want = std::min(wants[i % std::size(wants)], total - got.size());
        const ConstBytes ks = cursor.take(want);
        ASSERT_GE(ks.size(), 1u) << t->name << " total=" << total;
        ASSERT_LE(ks.size(), want) << t->name << " total=" << total;
        got.insert(got.end(), ks.begin(), ks.end());
      }
      ASSERT_EQ(cipher, got) << t->name << " total=" << total;
    }
  }
}

TEST(SimdKernels, KernelsMatchIlpStageComposition) {
  // Ground truth: every tier (scalar included) must reproduce the ilp_fused
  // stage compositions bit-for-bit — the dispatch table is an execution
  // strategy for the SAME §4 manipulations, not a different protocol. The
  // decrypt runs both as the receive pass (buf::chain_pass, the cursor
  // walk, over a chain of one segment) and as one call of the tier's
  // keystream generator plus its (data, keystream) kernel, against
  // EncryptStage's own cipher; the sizes past 200 put the cursor's refill
  // ends (multiples of 1,024, at most 2,048 apart) inside the buffer.
  TierGuard guard;
  const ChaChaKey key = test_key();
  const auto backing = random_backing(5, 64 + 5000);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 200; ++n) sizes.push_back(n);
  for (std::size_t n : {511, 512, 513, 1023, 1024, 1025, 1100, 2047, 2048, 2049, 2564,
                        4100, 5000}) {
    sizes.push_back(n);
  }
  for (const auto* t : available_tiers()) {
    ASSERT_TRUE(simd::set_active_tier(t->tier));
    for (std::size_t n : sizes) {
      const ConstBytes src{backing.data() + (n % 64), n};
      std::vector<std::uint8_t> want(src.begin(), src.end());
      std::vector<std::uint8_t> got = want;
      {
        ChecksumStage ck;
        EncryptStage dec(key, 0);
        Byteswap32Stage swap;
        ilp_fused(ConstBytes{want.data(), n}, MutableBytes{want.data(), n}, dec, ck, swap);
        buf::BufChain one = one_segment(src);
        const std::uint32_t r =
            buf::chain_pass(one, &key, ChecksumKind::kInternet, true);
        ASSERT_EQ(want, bytes_of(one)) << t->name << " n=" << n;
        ASSERT_EQ(ck.result(), r) << t->name << " n=" << n;
        std::vector<std::uint8_t> ks(n);
        t->chacha20_keystream(key, 0, MutableBytes{ks.data(), n});
        const std::uint16_t x = t->xor_checksum_byteswap(ConstBytes{ks.data(), n},
                                                         MutableBytes{got.data(), n});
        ASSERT_EQ(want, got) << t->name << " n=" << n;
        ASSERT_EQ(ck.result(), x) << t->name << " n=" << n;
      }
      {
        ChecksumStage ck;
        EncryptStage dec(key, 0);
        std::vector<std::uint8_t> ref(src.begin(), src.end());
        buf::BufChain one = one_segment(src);
        ilp_fused(ConstBytes{ref.data(), n}, MutableBytes{ref.data(), n}, dec, ck);
        ASSERT_EQ(ck.result(),
                  buf::chain_pass(one, &key, ChecksumKind::kInternet, false))
            << t->name << " n=" << n;
        ASSERT_EQ(ref, bytes_of(one)) << t->name << " n=" << n;
      }
      {
        std::vector<std::uint8_t> plain(src.begin(), src.end());
        ChecksumStage ck;
        detail::layered_pass(MutableBytes{plain.data(), n}, ck);
        ASSERT_EQ(ck.result(), t->internet_checksum(src)) << t->name << " n=" << n;
      }
      // The fused CRC-32 pass (the tier's xor_keystream, crc32 and
      // byteswap32 per piece of at most 2 KiB) against ilp_fused over
      // EncryptStage, Crc32Stage and Byteswap32Stage.
      for (bool decrypt : {false, true}) {
        std::vector<std::uint8_t> ref(src.begin(), src.end());
        buf::BufChain one = one_segment(src);
        Crc32Stage crc;
        EncryptStage dec(key, 0);
        Byteswap32Stage swap;
        const MutableBytes r{ref.data(), n};
        if (decrypt) {
          ilp_fused(r, r, dec, crc, swap);
        } else {
          ilp_fused(r, r, crc, swap);
        }
        const std::uint32_t c = buf::chain_pass(one, decrypt ? &key : nullptr,
                                                ChecksumKind::kCrc32, true);
        ASSERT_EQ(ref, bytes_of(one))
            << t->name << " crc n=" << n << " decrypt=" << decrypt;
        ASSERT_EQ(crc.result(), c) << t->name << " crc n=" << n << " decrypt=" << decrypt;
      }
    }
  }
}

TEST(SimdDispatch, RunManipulationOutputAndLedgerTierInvariant) {
  TierGuard guard;
  const auto tiers = available_tiers();
  const ChaChaKey key = test_key();
  const auto backing = random_backing(6, 2000);

  for (bool layered : {false, true}) {
    for (bool decrypt : {false, true}) {
      for (bool byteswap : {false, true}) {
        for (ChecksumKind kind : {ChecksumKind::kInternet, ChecksumKind::kFletcher32,
                                  ChecksumKind::kAdler32, ChecksumKind::kCrc32}) {
          for (std::size_t n : {std::size_t{0}, std::size_t{13}, std::size_t{64},
                                std::size_t{1000}, std::size_t{1999}}) {
            const ConstBytes plaintext{backing.data(), n};
            ManipulationPlan plan;
            plan.layered = layered;
            plan.decrypt = decrypt;
            plan.present =
                byteswap ? PresentStage::kSwap32 : PresentStage::kNone;
            plan.key = key;
            plan.checksum_kind = kind;
            plan.expected_checksum = compute_checksum(kind, plaintext);

            std::vector<std::uint8_t> wire(plaintext.begin(), plaintext.end());
            if (decrypt) chacha20_xor(key, 0, MutableBytes{wire.data(), n});

            std::vector<std::uint8_t> ref_out;
            obs::CostAccount ref_cost;
            bool ref_ok = false;
            for (std::size_t i = 0; i < tiers.size(); ++i) {
              ASSERT_TRUE(simd::set_active_tier(tiers[i]->tier));
              buf::BufChain one = one_segment(ConstBytes{wire.data(), n});
              obs::CostAccount cost;
              const bool ok = run_manipulation_chain(plan, one, &cost);
              const std::vector<std::uint8_t> out = bytes_of(one);
              EXPECT_TRUE(ok) << tiers[i]->name;
              if (i == 0) {
                ref_out = out;
                ref_cost = cost;
                ref_ok = ok;
                continue;
              }
              // Byte-identical output AND identical §4 ledger across tiers:
              // the ledger prices memory passes, not instructions.
              EXPECT_EQ(ok, ref_ok) << tiers[i]->name;
              EXPECT_EQ(out, ref_out) << tiers[i]->name << " n=" << n;
              EXPECT_EQ(cost.operations, ref_cost.operations) << tiers[i]->name;
              EXPECT_EQ(cost.bytes_touched, ref_cost.bytes_touched) << tiers[i]->name;
              EXPECT_EQ(cost.words_touched, ref_cost.words_touched) << tiers[i]->name;
              EXPECT_EQ(cost.memory_passes, ref_cost.memory_passes) << tiers[i]->name;
              EXPECT_EQ(cost.word_loads, ref_cost.word_loads) << tiers[i]->name;
              EXPECT_EQ(cost.word_stores, ref_cost.word_stores) << tiers[i]->name;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ngp
