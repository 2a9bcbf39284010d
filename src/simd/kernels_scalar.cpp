// kernels_scalar.cpp — the scalar tier of the dispatch table.
//
// Thin adapters over the unrolled word loops of the checksum modules, the
// ChaCha20 block function and the ILP stage templates (ilp/stages.h): each
// fused entry is the ilp_fused composition of the stages it names. Every
// vector tier is tested byte-identical against this table, which makes it
// the ground truth for the layer and the denominator of bench_table1's
// "best vs scalar fused" line.
#include "checksum/adler.h"
#include "checksum/checksum.h"
#include "checksum/crc32.h"
#include "checksum/fletcher.h"
#include "checksum/internet.h"
#include "crypto/chacha20.h"
#include "ilp/engine.h"
#include "ilp/stages.h"
#include "simd/dispatch.h"

namespace ngp::simd::scalar {

namespace {

std::uint16_t k_internet(ConstBytes data) {
  return internet_checksum_unrolled(data);
}

std::uint32_t k_fletcher(ConstBytes data) { return ngp::fletcher32(data); }

std::uint32_t k_adler(ConstBytes data) { return ngp::adler32(data); }

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
    .internet_checksum = k_internet,
    .fletcher32 = k_fletcher,
    .adler32 = k_adler,
    .crc32 = crc32_update,
    .byteswap32 = k_byteswap,
    .chacha20_keystream = k_keystream,
    .xor_keystream = k_xor,
    .xor_internet_checksum = k_xor_cksum,
    .xor_checksum_byteswap = k_xor_cksum_swap,
    .checksum_byteswap = k_cksum_swap,
};

}  // namespace ngp::simd::scalar
