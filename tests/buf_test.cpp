// Tests for src/buf (DESIGN.md §12): pool refcount lifecycle and recycle,
// cross-thread last release, chain split/trim/append invariants, all-tier
// chain_pass equivalence with the flat kernels over pool-backed chains,
// and the one manipulation executor over every plan against references
// that share no code with it: ngp::chacha20_xor, Byteswap32Stage and the
// scalar checksums for every plan, the ILP stage templates for every
// fused plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "buf/chain.h"
#include "buf/chain_ops.h"
#include "buf/pool.h"
#include "checksum/checksum.h"
#include "crypto/chacha20.h"
#include "ilp/engine.h"
#include "ilp/pipeline.h"
#include "ilp/stages.h"
#include "simd/dispatch.h"
#include "util/rng.h"

#include "test_bytes.h"

namespace ngp::buf {
namespace {

ByteBuffer random_bytes(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

/// A pool-backed chain holding `data`, cut into segments of the given
/// sizes (must sum to data.size()). `misalign` shifts each slice start
/// inside its segment so tiers see odd source alignments.
BufChain make_chain(BufferPool& pool, ConstBytes data,
                    const std::vector<std::size_t>& cuts,
                    std::size_t misalign = 0) {
  BufChain chain;
  std::size_t pos = 0;
  for (std::size_t n : cuts) {
    BufRef ref = pool.alloc(n + misalign);
    if (n != 0) std::memcpy(ref.data() + misalign, data.data() + pos, n);
    chain.append(Slice{std::move(ref), misalign, n});
    pos += n;
  }
  EXPECT_EQ(pos, data.size());
  return chain;
}

TEST(BufPool, RefcountRecycleAndReuse) {
  BufferPool pool;
  BufRef a = pool.alloc(1000);
  ASSERT_TRUE(static_cast<bool>(a));
  EXPECT_GE(a.capacity(), 1000u);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_TRUE(a.unique());

  BufRef b = a;  // copy adds a reference
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_FALSE(a.unique());
  EXPECT_EQ(a.data(), b.data());

  std::uint8_t* where = a.data();
  a.reset();
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_EQ(pool.stats().recycles, 0u);  // b still holds the segment

  b.reset();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.recycles, 1u);
  EXPECT_EQ(s.segments_live, 0u);

  // The recycled segment comes straight back from the thread cache.
  BufRef c = pool.alloc(1000);
  EXPECT_EQ(c.data(), where);
  EXPECT_GE(pool.stats().cache_hits, 1u);
}

TEST(BufPool, ZeroAndOversizeAllocs) {
  PoolConfig cfg;
  cfg.size_classes = {512, 2048};
  BufferPool pool(cfg);

  EXPECT_FALSE(static_cast<bool>(pool.alloc(0)));

  // Oversize requests fall back to one-off heap segments and still
  // refcount/recycle normally.
  BufRef big = pool.alloc(1 << 20);
  ASSERT_TRUE(static_cast<bool>(big));
  EXPECT_GE(big.capacity(), std::size_t{1} << 20);
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);
  EXPECT_EQ(pool.stats().segments_live, 1u);
  big.data()[0] = 0x5A;
  big.reset();
  EXPECT_EQ(pool.stats().recycles, 1u);
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

TEST(BufPool, LiveSegmentsAreDistinct) {
  BufferPool pool;
  BufRef a = pool.alloc(64);
  BufRef b = pool.alloc(64);
  EXPECT_NE(a.data(), b.data());
  a.data()[0] = 1;
  b.data()[0] = 2;
  EXPECT_EQ(a.bytes()[0], 1);
  EXPECT_EQ(b.bytes()[0], 2);
}

TEST(BufPool, ContainsTestsSegmentBounds) {
  BufferPool pool;
  BufRef a = pool.alloc(256);
  BufRef b = pool.alloc(256);
  EXPECT_TRUE(a.contains(ConstBytes{a.data(), 256}));
  EXPECT_TRUE(a.contains(ConstBytes{a.data() + 10, 16}));
  EXPECT_FALSE(a.contains(ConstBytes{b.data(), 16}));
  EXPECT_FALSE(a.contains(ConstBytes{a.data() + a.capacity() - 4, 8}));
  EXPECT_FALSE(BufRef{}.contains(ConstBytes{a.data(), 4}));
}

// The engine-worker shape: the last reference to a segment is dropped on
// a different thread from the one that allocated it (runs under the tsan
// lane; see tests/CMakeLists.txt).
TEST(BufPool, CrossThreadLastRelease) {
  BufferPool pool;
  for (int round = 0; round < 8; ++round) {
    Slice s{pool.alloc(4096), 0, 4096};
    std::memset(s.mutable_bytes().data(), round, s.len);
    std::thread t([slice = std::move(s), round] {
      // Reads must observe the control thread's writes (acq_rel release).
      EXPECT_EQ(slice.bytes()[0], round);
      EXPECT_EQ(slice.bytes()[4095], round);
      // `slice` destroyed here: last release from this thread recycles.
    });
    t.join();
  }
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.recycles, 8u);
  EXPECT_EQ(s.segments_live, 0u);
  // The pool stays usable from the control thread afterwards.
  BufRef again = pool.alloc(4096);
  EXPECT_TRUE(static_cast<bool>(again));
}

TEST(BufChain, AppendCoalescesContiguousSameSegment) {
  BufferPool pool;
  BufRef ref = pool.alloc(1024);
  for (std::size_t i = 0; i < 1024; ++i) ref.data()[i] = static_cast<std::uint8_t>(i);

  BufChain chain;
  Slice whole{ref, 0, 1024};
  chain.append(whole.sub(0, 300));
  chain.append(whole.sub(300, 400));  // contiguous: coalesces
  chain.append(whole.sub(700, 324));  // contiguous: coalesces
  EXPECT_EQ(chain.size(), 1024u);
  EXPECT_EQ(chain.segment_count(), 1u);

  // A gap (or another segment) breaks coalescing.
  BufRef other = pool.alloc(64);
  chain.append(Slice{other, 0, 64});
  EXPECT_EQ(chain.segment_count(), 2u);

  // Empty slices disappear.
  chain.append(Slice{});
  EXPECT_EQ(chain.segment_count(), 2u);
  EXPECT_EQ(chain.size(), 1088u);
}

TEST(BufChain, SplitTrimAppendInvariants) {
  BufferPool pool;
  const auto data = random_bytes(10'000, 42);
  BufChain chain = make_chain(pool, data.span(), {1, 4095, 3000, 2048, 856});
  ASSERT_EQ(chain.size(), 10'000u);
  ASSERT_EQ(chain.segment_count(), 5u);

  // Split mid-segment: both halves carry the right bytes, the straddled
  // segment is shared (one reference per side), and no bytes move.
  BufChain head = chain.split(6000);
  EXPECT_EQ(head.size(), 6000u);
  EXPECT_EQ(chain.size(), 4000u);
  ByteBuffer h = head.flatten();
  ByteBuffer t = chain.flatten();
  EXPECT_EQ(h, ByteBuffer(data.span().subspan(0, 6000)));
  EXPECT_EQ(t, ByteBuffer(data.span().subspan(6000)));
  // The cut fell inside the 3000-byte segment (range [4096, 7096)):
  // its pool segment now backs a slice in each chain.
  EXPECT_EQ(head.segment(head.segment_count() - 1).ref.use_count(), 2u);
  EXPECT_EQ(head.segment(head.segment_count() - 1).ref.data(),
            chain.segment(0).ref.data());

  // Rejoin: append(BufChain&&) restores the original byte string and the
  // shared-segment halves coalesce back into one slice.
  head.append(std::move(chain));
  EXPECT_EQ(head.size(), 10'000u);
  EXPECT_EQ(head.segment_count(), 5u);
  EXPECT_EQ(head.flatten(), data);
  EXPECT_EQ(chain.size(), 0u);  // consumed

  // Trims drop whole slices and shrink straddlers; refs go with them.
  BufRef first_seg = head.segment(0).ref;
  head.trim_front(4097);  // drops segments 0+1 entirely, 1 byte of seg 2
  EXPECT_EQ(head.size(), 5903u);
  EXPECT_EQ(head.flatten(), ByteBuffer(data.span().subspan(4097)));
  EXPECT_TRUE(first_seg.unique());  // chain no longer references it

  head.trim_back(5903 - 100);
  EXPECT_EQ(head.size(), 100u);
  EXPECT_EQ(head.flatten(), ByteBuffer(data.span().subspan(4097, 100)));

  head.clear();
  EXPECT_TRUE(head.empty());

  // Split at the exact boundaries.
  BufChain edge = make_chain(pool, data.span().subspan(0, 100), {50, 50});
  BufChain all = edge.split(100);
  EXPECT_EQ(all.size(), 100u);
  EXPECT_TRUE(edge.empty());
  BufChain none = all.split(0);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(all.size(), 100u);
}

TEST(BufChain, HeadroomExpandAndPrepend) {
  BufferPool pool;
  BufRef ref = pool.alloc(512);
  Slice s = Slice::with_headroom(ref, 64, 100);
  EXPECT_EQ(s.headroom(), 64u);
  EXPECT_GE(s.trailroom(), ref.capacity() - 164);
  std::memset(s.mutable_bytes().data(), 0xAA, s.len);

  s.expand_front(16);  // header prepend without a copy
  EXPECT_EQ(s.headroom(), 48u);
  EXPECT_EQ(s.len, 116u);
  std::memset(s.mutable_bytes().data(), 0xBB, 16);

  BufChain chain;
  chain.append(s);
  EXPECT_EQ(chain.size(), 116u);
  ByteBuffer flat = chain.flatten();
  EXPECT_EQ(flat[0], 0xBB);
  EXPECT_EQ(flat[16], 0xAA);

  BufRef hdr = pool.alloc(8);
  std::memset(hdr.bytes().data(), 0xCC, 8);
  chain.prepend(Slice{std::move(hdr), 0, 8});
  EXPECT_EQ(chain.size(), 124u);
  EXPECT_EQ(chain.flatten()[0], 0xCC);
}

TEST(BufChain, ReadAndCopyOutMatchFlatten) {
  BufferPool pool;
  const auto data = random_bytes(4321, 7);
  BufChain chain = make_chain(pool, data.span(), {1000, 1, 2000, 1320}, 3);
  ByteBuffer flat = chain.flatten();
  ASSERT_EQ(flat, data);

  ByteBuffer whole(chain.size());
  chain.copy_out(whole.span());
  EXPECT_EQ(whole, flat);

  for (auto [pos, n] : {std::pair<std::size_t, std::size_t>{0, 1},
                        {999, 2},      // straddles segments 0/1
                        {1000, 1},     // exactly the 1-byte segment
                        {500, 3821},   // spans everything
                        {4320, 1}}) {
    ByteBuffer out(n);
    chain.read(pos, out.span());
    EXPECT_EQ(out, ByteBuffer(data.span().subspan(pos, n)))
        << "pos=" << pos << " n=" << n;
  }
}

// run_manipulation_chain over a cut chain must decrypt and verify exactly
// as over the same bytes in one segment, a flat buffer's shape, with the
// same ledger; a checksum-only plan charges a load-only pass, the
// measurable zero-copy saving.
TEST(BufChain, ChainManipulationMatchesFlat) {
  BufferPool pool;
  const auto plain = random_bytes(9001, 5);
  const std::uint16_t expect =
      internet_checksum_unrolled(plain.span());

  ChaChaKey key;
  for (std::size_t i = 0; i < key.key.size(); ++i) key.key[i] = static_cast<std::uint8_t>(i);
  for (std::size_t i = 0; i < key.nonce.size(); ++i) key.nonce[i] = static_cast<std::uint8_t>(0x40 + i);

  ByteBuffer wire(plain.span());
  chacha20_xor(key, 0, wire.span());

  ManipulationPlan plan;
  plan.decrypt = true;
  plan.key = key;
  plan.checksum_kind = ChecksumKind::kInternet;
  plan.expected_checksum = expect;

  // Chain path.
  BufChain chain = make_chain(pool, wire.span(), {1, 8191, 809}, 1);
  obs::CostAccount chain_acct;
  EXPECT_TRUE(run_manipulation_chain(plan, chain, &chain_acct));
  ByteBuffer chain_out = chain.flatten();
  EXPECT_EQ(chain_out, plain);

  // One segment.
  BufChain flat = make_chain(pool, wire.span(), {wire.size()});
  obs::CostAccount flat_acct;
  EXPECT_TRUE(run_manipulation_chain(plan, flat, &flat_acct));
  EXPECT_EQ(flat.flatten(), plain);
  EXPECT_EQ(chain_acct.memory_passes, flat_acct.memory_passes);
  EXPECT_EQ(chain_acct.word_loads, flat_acct.word_loads);
  EXPECT_EQ(chain_acct.word_stores, flat_acct.word_stores);

  // Corruption is detected.
  BufChain bad = make_chain(pool, wire.span(), {4500, 4501});
  bad.segment(1).mutable_bytes()[7] ^= 0x10;
  EXPECT_FALSE(run_manipulation_chain(plan, bad, nullptr));

  // Checksum-only plans never store: the pass is load-only.
  ManipulationPlan verify_only;
  verify_only.checksum_kind = ChecksumKind::kInternet;
  verify_only.expected_checksum = expect;
  BufChain vchain = make_chain(pool, plain.span(), {4500, 4501});
  obs::CostAccount vacct;
  EXPECT_TRUE(run_manipulation_chain(verify_only, vchain, &vacct));
  EXPECT_EQ(vacct.word_stores, 0u);
  EXPECT_GT(vacct.word_loads, 0u);
}

// chain_pass's byteswap (the fused presentation stage's zero-copy half)
// must be bit-identical to flattening and running the flat kernel —
// including the flat tail rule (a final partial word swaps only when
// exactly 4 bytes remain) — at every tier, segmentation, and alignment.
TEST(BufChain, ChainByteswapMatchesFlatKernelAllTiers) {
  const simd::KernelTier saved = simd::active_tier();
  // Sizes hitting every n % 8 residue: full words, exact-4 tails, and
  // pass-through tails of 1..3 and 5..7 bytes.
  const std::size_t sizes[] = {8, 12, 1024, 1025, 1026, 1027, 1028,
                               1029, 1030, 1031, 4096, 9001};
  const std::vector<std::vector<std::size_t>> cuttings = {
      {0},            // single segment (placeholder, fixed up per size)
      {1, 2, 3, 0},   // tiny heads straddling the first unit
      {5, 0, 7},      // word-straddling interior boundary
  };

  for (std::size_t ti = 0; ti < simd::kKernelTierCount; ++ti) {
    const auto tier = static_cast<simd::KernelTier>(ti);
    if (simd::tier_table(tier) == nullptr) continue;
    ASSERT_TRUE(simd::set_active_tier(tier));

    for (std::size_t n : sizes) {
      const auto data = random_bytes(n, 0xB0B0 + n);
      for (auto cuts : cuttings) {
        // Fix up the 0 placeholder to absorb the remainder.
        std::size_t fixed = 0;
        for (auto c : cuts) fixed += c;
        bool ok = true;
        for (auto& c : cuts) {
          if (c == 0) c = n - fixed;
          if (c > n) ok = false;
        }
        if (!ok || cuts.size() > n) continue;
        for (std::size_t misalign : {std::size_t{0}, std::size_t{3}}) {
          BufferPool pool;
          BufChain chain = make_chain(pool, data.span(), cuts, misalign);
          EXPECT_EQ(chain_pass(chain, nullptr, ChecksumKind::kNone, true), 0u);
          ByteBuffer flat(data.span());
          simd::kernels().byteswap32(flat.span());
          EXPECT_EQ(chain.flatten(), flat)
              << "tier " << ti << " n=" << n << " misalign=" << misalign;
        }
      }
    }
  }
  simd::set_active_tier(saved);
}

TEST(BufChain, ChainChecksumByteswapMatchesFlatFusedKernel) {
  const simd::KernelTier saved = simd::active_tier();
  for (std::size_t ti = 0; ti < simd::kKernelTierCount; ++ti) {
    const auto tier = static_cast<simd::KernelTier>(ti);
    if (simd::tier_table(tier) == nullptr) continue;
    ASSERT_TRUE(simd::set_active_tier(tier));

    for (std::size_t n : {std::size_t{16}, std::size_t{1027}, std::size_t{9004}}) {
      const auto data = random_bytes(n, 0xC0C0 + n);
      BufferPool pool;
      BufChain chain = make_chain(pool, data.span(), {n / 3, n / 3, n - 2 * (n / 3)}, 1);
      const std::uint32_t chain_ck =
          chain_pass(chain, nullptr, ChecksumKind::kInternet, true);

      ByteBuffer flat(data.span());
      const std::uint16_t flat_ck = simd::kernels().checksum_byteswap(flat.span());
      EXPECT_EQ(chain_ck, flat_ck) << "tier " << ti << " n=" << n;
      EXPECT_EQ(chain.flatten(), flat) << "tier " << ti << " n=" << n;
      // The checksum absorbed the PRE-swap bytes (it covers wire order).
      EXPECT_EQ(flat_ck, internet_checksum_unrolled(data.span()));
    }
  }
  simd::set_active_tier(saved);
}

TEST(BufChain, ChainDecryptChecksumByteswapMatchesFlatFusedKernel) {
  const simd::KernelTier saved = simd::active_tier();
  ChaChaKey key;
  for (std::size_t i = 0; i < key.key.size(); ++i) {
    key.key[i] = static_cast<std::uint8_t>(0x11 * (i + 1));
  }
  for (std::size_t ti = 0; ti < simd::kKernelTierCount; ++ti) {
    const auto tier = static_cast<simd::KernelTier>(ti);
    if (simd::tier_table(tier) == nullptr) continue;
    ASSERT_TRUE(simd::set_active_tier(tier));

    // Sizes around the 64-byte keystream block boundary AND the 8/4 swap
    // tail rule; segment cuts that straddle both.
    for (std::size_t n : {std::size_t{64}, std::size_t{65}, std::size_t{127},
                          std::size_t{1028}, std::size_t{8132}}) {
      const auto plain = random_bytes(n, 0xD0D0 + n);
      ByteBuffer wire(plain.span());
      chacha20_xor(key, 0, wire.span());

      BufferPool pool;
      BufChain chain =
          make_chain(pool, wire.span(), {1, n / 2, n - 1 - n / 2}, 2);
      const std::uint32_t chain_ck =
          chain_pass(chain, &key, ChecksumKind::kInternet, true);

      // The tier's fused kernel over the flat buffer, its keystream from
      // one generator call.
      ByteBuffer flat(wire.span());
      ByteBuffer ks(n);
      simd::kernels().chacha20_keystream(key, 0, ks.span());
      const std::uint32_t flat_ck =
          simd::kernels().xor_checksum_byteswap(ks.span(), flat.span());
      EXPECT_EQ(chain_ck, flat_ck) << "tier " << ti << " n=" << n;
      EXPECT_EQ(chain.flatten(), flat) << "tier " << ti << " n=" << n;
      // The same walk over one segment.
      BufChain one = make_chain(pool, wire.span(), {n}, 2);
      EXPECT_EQ(chain_pass(one, &key, ChecksumKind::kInternet, true), flat_ck)
          << "tier " << ti << " n=" << n;
      EXPECT_EQ(one.flatten(), flat) << "tier " << ti << " n=" << n;
      // Checksum covers the decrypted plaintext, pre-swap.
      EXPECT_EQ(flat_ck, internet_checksum_unrolled(plain.span()));
      // With no sum, the same walk writes the same bytes and returns 0.
      BufChain bare =
          make_chain(pool, wire.span(), {1, n / 2, n - 1 - n / 2}, 2);
      EXPECT_EQ(chain_pass(bare, &key, ChecksumKind::kNone, true), 0u);
      EXPECT_EQ(bare.flatten(), flat) << "tier " << ti << " n=" << n;
    }
  }
  simd::set_active_tier(saved);
}

/// Segmentations for an n-byte chain, every piece non-empty: whole, a
/// 1-byte head, odd interior cuts that straddle 4/8-byte units and 64-byte
/// keystream blocks, an odd split near the middle, the link's cutting
/// (1,446-byte fragments, so every seam falls inside a keystream batch on
/// every vector tier), and pieces of 1-7 bytes, so no segment has an
/// aligned body and a swap unit or keystream block head spans three or
/// more segments.
std::vector<std::vector<std::size_t>> cuttings(std::size_t n) {
  std::vector<std::vector<std::size_t>> out{{n}};
  if (n > 1) out.push_back({1, n - 1});
  if (n > 13 + 61 + 67) out.push_back({13, 61, 67, n - 13 - 61 - 67});
  if (n > 4) out.push_back({n / 2 | 1, n - (n / 2 | 1)});
  if (n > 1446) {
    std::vector<std::size_t> frags;
    for (std::size_t at = 0; at < n; at += 1446) {
      frags.push_back(std::min<std::size_t>(1446, n - at));
    }
    out.push_back(std::move(frags));
  }
  // 1-7-byte pieces over the first 4,101 bytes; a longer chain ends in
  // one segment that starts mid-batch, which keeps the piece count (and
  // the test's run time) bounded.
  const std::size_t tiny[] = {1, 2, 1, 7, 3, 6, 1, 1, 5, 4};
  const std::size_t tiny_end = std::min<std::size_t>(n, 4101);
  std::vector<std::size_t> pieces;
  for (std::size_t at = 0, i = 0; at < tiny_end; ++i) {
    pieces.push_back(std::min(tiny[i % std::size(tiny)], tiny_end - at));
    at += pieces.back();
  }
  if (tiny_end < n) pieces.push_back(n - tiny_end);
  out.push_back(std::move(pieces));
  return out;
}

/// True for the plans run_manipulation_chain runs as one fused pass.
bool fused_plan(const ManipulationPlan& plan) {
  return !plan.layered && (plan.checksum_kind == ChecksumKind::kInternet ||
                           plan.checksum_kind == ChecksumKind::kCrc32);
}

/// `kind`'s checksum, widened to 32 bits, from the scalar one-shot
/// implementations over a flat buffer: no tier kernel, no segment walk.
std::uint32_t reference_checksum(ChecksumKind kind, ConstBytes b) {
  switch (kind) {
    case ChecksumKind::kNone:
      return 0;
    case ChecksumKind::kInternet:
      return internet_checksum_unrolled(b);
    case ChecksumKind::kFletcher32:
      return fletcher32(b);
    case ChecksumKind::kAdler32:
      return adler32(b);
    case ChecksumKind::kCrc32:
      return crc32(b);
  }
  return 0;
}

/// The bytes and verdict `plan` must leave over `input`, from references
/// that share no code with the walk: ngp::chacha20_xor decrypts, the
/// scalar checksum decides, and Byteswap32Stage swaps, always in a fused
/// plan and only when intact in any other.
bool reference_run(const ManipulationPlan& plan, ByteBuffer& bytes) {
  if (plan.decrypt) chacha20_xor(plan.key, 0, bytes.span());
  const bool intact =
      reference_checksum(plan.checksum_kind, bytes.span()) == plan.expected_checksum;
  if (plan.present == PresentStage::kSwap32 && (fused_plan(plan) || intact)) {
    Byteswap32Stage swap;
    ilp_fused(bytes.span(), bytes.span(), swap);
  }
  return intact;
}

/// The §4 charge of `plan` over n bytes, from the plan's shape alone: one
/// operation; a fused plan is one pass that stores iff it decrypts or
/// swaps, any other is a storing decrypt pass, a load-only verify pass,
/// then a storing swap pass only when intact.
obs::CostAccount reference_charge(const ManipulationPlan& plan, std::size_t n,
                                  bool intact) {
  const bool swap = plan.present == PresentStage::kSwap32;
  std::uint64_t passes = 1, storing = 0;
  if (fused_plan(plan)) {
    storing = plan.decrypt || swap ? 1 : 0;
  } else {
    storing = (plan.decrypt ? 1 : 0) + (swap && intact ? 1 : 0);
    passes += storing;
  }
  const std::uint64_t words = obs::CostAccount::words(n);
  obs::CostAccount want;
  want.operations = 1;
  want.bytes_touched = n;
  want.words_touched = words;
  want.memory_passes = passes;
  want.word_loads = passes * words;
  want.word_stores = storing * words;
  return want;
}

void expect_same_ledger(const obs::CostAccount& got, const obs::CostAccount& want,
                        const std::string& where) {
  EXPECT_EQ(got.operations, want.operations) << where;
  EXPECT_EQ(got.bytes_touched, want.bytes_touched) << where;
  EXPECT_EQ(got.words_touched, want.words_touched) << where;
  EXPECT_EQ(got.memory_passes, want.memory_passes) << where;
  EXPECT_EQ(got.word_loads, want.word_loads) << where;
  EXPECT_EQ(got.word_stores, want.word_stores) << where;
}

// The receive path's one executor over the whole plan space: every
// checksum kind x decrypt x present stage x fused/layered x SIMD tier, on
// chains cut at odd offsets with misaligned starts, the first of them one
// segment, a flat buffer's shape. Verdict, bytes and ledger must match the
// references above (intact, after a one-bit flip, and against an expected
// checksum that differs only in bit 16), none of which runs the walk.
TEST(BufChain, ChainExecutorMatchesFlatForEveryPlan) {
  const simd::KernelTier saved = simd::active_tier();
  ChaChaKey key;
  for (std::size_t i = 0; i < key.key.size(); ++i) {
    key.key[i] = static_cast<std::uint8_t>(0x5A ^ (7 * i));
  }
  key.nonce[11] = 0x33;
  const ChecksumKind kinds[] = {ChecksumKind::kNone, ChecksumKind::kInternet,
                                ChecksumKind::kFletcher32, ChecksumKind::kAdler32,
                                ChecksumKind::kCrc32};
  const PresentStage stages[] = {PresentStage::kNone, PresentStage::kIdentity,
                                 PresentStage::kSwap32};
  // 1,100 bytes spans three keystream refills, so its odd cuts put seams
  // inside and across them; 16,388 is bulk_xdr's ADU, also cut as the
  // link cuts it.
  const std::size_t sizes[] = {1, 4, 7, 64, 65, 127, 1028, 1100, 4101, 16388};

  BufferPool pool;
  for (std::size_t ti = 0; ti < simd::kKernelTierCount; ++ti) {
    const auto tier = static_cast<simd::KernelTier>(ti);
    if (simd::tier_table(tier) == nullptr) continue;
    ASSERT_TRUE(simd::set_active_tier(tier));
    for (std::size_t n : sizes) {
      const auto plain = random_bytes(n, 0xE0E0 + n);
      for (ChecksumKind kind : kinds) {
        for (bool decrypt : {false, true}) {
          ByteBuffer wire(plain.span());
          if (decrypt) chacha20_xor(key, 0, wire.span());
          ByteBuffer flipped(wire.span());
          flipped[n * 7 / 13] ^= 0x08;
          for (PresentStage present : stages) {
            for (bool layered : {false, true}) {
              ManipulationPlan plan;
              plan.layered = layered;
              plan.decrypt = decrypt;
              plan.key = key;
              plan.checksum_kind = kind;
              plan.expected_checksum = reference_checksum(kind, plain.span());
              plan.present = present;
              const std::string where =
                  std::string(simd::tier_name(tier)) + " n=" + std::to_string(n) +
                  " " + std::string(checksum_kind_name(kind)) +
                  (decrypt ? " decrypt" : "") + " present=" +
                  std::to_string(static_cast<int>(present)) +
                  (layered ? " layered" : " fused");

              // The whole 32-bit field is the verdict: a header claiming
              // the right 16-bit sum with bit 16 set is not intact.
              ManipulationPlan high_bit = plan;
              high_bit.expected_checksum ^= 0x10000u;
              const struct {
                const ByteBuffer* input;
                const ManipulationPlan* plan;
                const char* label;
              } cases[] = {{&wire, &plan, ""},
                           {&flipped, &plan, " (bit flip)"},
                           {&wire, &high_bit, " (expected bit 16)"}};
              for (const auto& [input, p, label] : cases) {
                ByteBuffer want(input->span());
                const bool want_ok = reference_run(*p, want);
                if (p == &high_bit) {
                  EXPECT_FALSE(want_ok) << where << label;
                } else if (input == &wire) {
                  EXPECT_TRUE(want_ok) << where;
                } else if (kind != ChecksumKind::kNone) {
                  EXPECT_FALSE(want_ok) << where << label;
                }
                const obs::CostAccount charge = reference_charge(*p, n, want_ok);
                for (const auto& cuts : cuttings(n)) {
                  for (std::size_t misalign : {std::size_t{0}, std::size_t{3}}) {
                    BufChain chain = make_chain(pool, input->span(), cuts, misalign);
                    obs::CostAccount acct;
                    const bool ok = run_manipulation_chain(*p, chain, &acct);
                    const std::string at =
                        where + " segs=" + std::to_string(cuts.size()) +
                        " misalign=" + std::to_string(misalign) + label;
                    EXPECT_EQ(ok, want_ok) << at;
                    EXPECT_PRED_FORMAT2(test::BytesEq, chain.flatten(), want) << at;
                    expect_same_ledger(acct, charge, at);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  simd::set_active_tier(saved);
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

/// A fused plan's bytes and checksum from the ILP stage templates:
/// ilp_fused in place over
/// EncryptStage (when `key` is set), the checksum stage Sum, then
/// Byteswap32Stage (when `swap` is set).
template <typename Sum>
std::uint32_t ilp_reference(MutableBytes b, const ChaChaKey* key, bool swap) {
  Sum sum;
  EncryptStage dec(key != nullptr ? *key : ChaChaKey{}, 0);
  Byteswap32Stage sw;
  if (key != nullptr && swap) {
    ilp_fused(b, b, dec, sum, sw);
  } else if (key != nullptr) {
    ilp_fused(b, b, dec, sum);
  } else if (swap) {
    ilp_fused(b, b, sum, sw);
  } else {
    ilp_fused(b, b, sum);
  }
  return sum.result();
}

// The executor against a second independent reference, the ILP stage
// templates: every fused plan (Internet or CRC-32, with and without
// decrypt, with and without swap) on every tier, over the cuttings and
// misalignments above, the first of them one segment as a flat buffer or
// a one-fragment ADU reaches the executor, must verify against the
// stages' checksum and leave the stages' bytes.
TEST(BufChain, BothExecutorsMatchIlpStagesForEveryFusedPlan) {
  const simd::KernelTier saved = simd::active_tier();
  ChaChaKey key;
  for (std::size_t i = 0; i < key.key.size(); ++i) {
    key.key[i] = static_cast<std::uint8_t>(0xA5 ^ (11 * i));
  }
  key.nonce[0] = 0x42;
  const std::size_t sizes[] = {1, 4, 7, 64, 65, 127, 1028, 1100, 4101, 16388};

  BufferPool pool;
  for (std::size_t ti = 0; ti < simd::kKernelTierCount; ++ti) {
    const auto tier = static_cast<simd::KernelTier>(ti);
    if (simd::tier_table(tier) == nullptr) continue;
    ASSERT_TRUE(simd::set_active_tier(tier));
    for (std::size_t n : sizes) {
      const auto wire = random_bytes(n, 0xF0F0 + n);
      for (ChecksumKind kind : {ChecksumKind::kInternet, ChecksumKind::kCrc32}) {
        for (bool decrypt : {false, true}) {
          for (bool swap : {false, true}) {
            ByteBuffer want(wire.span());
            const ChaChaKey* k = decrypt ? &key : nullptr;
            ManipulationPlan plan;
            plan.decrypt = decrypt;
            plan.key = key;
            plan.checksum_kind = kind;
            plan.present = swap ? PresentStage::kSwap32 : PresentStage::kNone;
            plan.expected_checksum =
                kind == ChecksumKind::kCrc32
                    ? ilp_reference<Crc32Stage>(want.span(), k, swap)
                    : ilp_reference<ChecksumStage>(want.span(), k, swap);
            const std::string where =
                std::string(simd::tier_name(tier)) + " n=" + std::to_string(n) +
                " " + std::string(checksum_kind_name(kind)) +
                (decrypt ? " decrypt" : "") + (swap ? " swap" : "");

            for (const auto& cuts : cuttings(n)) {
              for (std::size_t misalign : {std::size_t{0}, std::size_t{3}}) {
                BufChain chain = make_chain(pool, wire.span(), cuts, misalign);
                const std::string at = where + " segs=" + std::to_string(cuts.size()) +
                                       " misalign=" + std::to_string(misalign);
                EXPECT_TRUE(run_manipulation_chain(plan, chain, nullptr)) << at;
                EXPECT_PRED_FORMAT2(test::BytesEq, chain.flatten(), want) << at;
              }
            }
          }
        }
      }
    }
  }
  simd::set_active_tier(saved);
  EXPECT_EQ(pool.stats().segments_live, 0u);
}

}  // namespace
}  // namespace ngp::buf
