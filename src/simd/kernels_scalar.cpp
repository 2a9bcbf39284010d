// kernels_scalar.cpp — the scalar tier of the dispatch table.
//
// These are thin adapters over the repo's existing hand-unrolled loops and
// ILP stage templates, so the scalar tier IS the pre-simd behaviour: the
// fused entries run the exact ilp_fused stage compositions the pipeline
// used to instantiate directly. Every SIMD tier is tested byte-identical
// against this table, which makes it the ground truth for the whole layer
// (and the denominator of the bench "best vs scalar fused" headline).
#include "checksum/adler.h"
#include "checksum/checksum.h"
#include "checksum/crc32.h"
#include "checksum/fletcher.h"
#include "checksum/internet.h"
#include "crypto/chacha20.h"
#include "ilp/engine.h"
#include "ilp/kernels.h"
#include "ilp/stages.h"
#include "simd/dispatch.h"

namespace ngp::simd::scalar {

namespace {

void k_copy(ConstBytes src, MutableBytes dst) { copy_unrolled(src, dst); }

std::uint16_t k_internet(ConstBytes data) {
  return internet_checksum_unrolled(data);
}

std::uint32_t k_fletcher(ConstBytes data) { return ngp::fletcher32(data); }

std::uint32_t k_adler(ConstBytes data) { return ngp::adler32(data); }

void k_chacha(const ChaChaKey& key, std::uint32_t counter, MutableBytes data) {
  ngp::chacha20_xor(key, counter, data);
}

void k_byteswap(MutableBytes data) {
  Byteswap32Stage swap;
  detail::layered_pass(data, swap);
}

std::uint16_t k_cksum_swap(MutableBytes data) {
  ChecksumStage ck;
  Byteswap32Stage swap;
  ilp_fused(data, data, ck, swap);
  return ck.result();
}

void k_keystream(const ChaChaKey& key, std::uint32_t counter,
                 MutableBytes out) {
  ngp::chacha20_keystream(key, counter, out);
}

void k_xor(ConstBytes keystream, MutableBytes data) {
  KeystreamStage dec(keystream.data());
  detail::layered_pass(data, dec);
}

std::uint16_t k_xor_cksum(ConstBytes keystream, MutableBytes data) {
  KeystreamStage dec(keystream.data());
  ChecksumStage ck;
  ilp_fused(data, data, dec, ck);
  return ck.result();
}

std::uint16_t k_xor_cksum_swap(ConstBytes keystream, MutableBytes data) {
  KeystreamStage dec(keystream.data());
  ChecksumStage ck;
  Byteswap32Stage swap;
  ilp_fused(data, data, dec, ck, swap);
  return ck.result();
}

}  // namespace

extern const KernelTable kTable;
const KernelTable kTable = {
    .tier = KernelTier::kScalar,
    .name = "scalar",
    .copy = k_copy,
    .internet_checksum = k_internet,
    .fletcher32 = k_fletcher,
    .adler32 = k_adler,
    .crc32 = crc32_update,
    .chacha20_xor = k_chacha,
    .byteswap32 = k_byteswap,
    .chacha20_keystream = k_keystream,
    .xor_keystream = k_xor,
    .xor_internet_checksum = k_xor_cksum,
    .xor_checksum_byteswap = k_xor_cksum_swap,
    .checksum_byteswap = k_cksum_swap,
};

}  // namespace ngp::simd::scalar
