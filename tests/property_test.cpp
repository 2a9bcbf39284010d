// Property-style sweeps across randomized inputs and parameter grids.
// These tests pin the invariants the benches and the paper's claims rely
// on: codec round-trips for arbitrary data, fused/layered equivalence for
// arbitrary pipelines, incremental-checksum algebra for arbitrary splits,
// and ALF end-to-end integrity across a loss/MTU grid.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "checksum/internet.h"
#include "engine/engine.h"
#include "ilp/engine.h"
#include "netsim/net_path.h"
#include "presentation/ber.h"
#include "presentation/codec.h"
#include "util/rng.h"

namespace ngp {
namespace {

// ---- Checksum algebra: random split points ------------------------------------

class ChecksumSplitProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChecksumSplitProperty, IncrementalEqualsOneShotForRandomSplits) {
  Rng rng(GetParam());
  const std::size_t len = 1 + rng.uniform(5000);
  ByteBuffer data(len);
  rng.fill(data.span());
  const auto want = internet_checksum(data.span());

  // Random partition into up to 8 chunks.
  InternetChecksum inc;
  std::size_t pos = 0;
  while (pos < len) {
    const std::size_t chunk = 1 + rng.uniform(len - pos);
    inc.add(data.span().subspan(pos, chunk));
    pos += chunk;
  }
  EXPECT_EQ(inc.finish(), want) << "len=" << len;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumSplitProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---- Codec round-trip: random arrays across all syntaxes ------------------------

class CodecRoundTripProperty
    : public ::testing::TestWithParam<std::tuple<TransferSyntax, std::uint64_t>> {};

TEST_P(CodecRoundTripProperty, RandomIntArrays) {
  const auto [syntax, seed] = GetParam();
  Rng rng(seed);
  const std::size_t n = rng.uniform(2000);
  std::vector<std::int32_t> values(n);
  for (auto& v : values) v = static_cast<std::int32_t>(rng.next());
  ByteBuffer enc = encode_int_array(syntax, values);
  auto dec = decode_int_array(syntax, enc.span());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, values);
}

INSTANTIATE_TEST_SUITE_P(
    SyntaxSeeds, CodecRoundTripProperty,
    ::testing::Combine(::testing::Values(TransferSyntax::kRaw, TransferSyntax::kLwts,
                                         TransferSyntax::kXdr, TransferSyntax::kBer,
                                         TransferSyntax::kBerToolkit),
                       ::testing::Range<std::uint64_t>(100, 106)));

// ---- ILP equivalence under random stage selection --------------------------------

class IlpRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IlpRandomProperty, FusedEqualsLayeredForRandomInputs) {
  Rng rng(GetParam());
  const std::size_t len = rng.uniform(8192);
  ByteBuffer src(len);
  rng.fill(src.span());
  ChaChaKey k;
  rng.fill({k.key.data(), k.key.size()});
  rng.fill({k.nonce.data(), k.nonce.size()});

  ByteBuffer a(len), b(len);
  ChecksumStage pre1, pre2;
  EncryptStage e1(k, 0), e2(k, 0);
  ChecksumStage post1, post2;
  ilp_fused(src.span(), a.span(), pre1, e1, post1);
  ilp_layered(src.span(), b.span(), pre2, e2, post2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pre1.result(), pre2.result());
  EXPECT_EQ(post1.result(), post2.result());
  // And the pre-checksum equals the scalar reference.
  EXPECT_EQ(pre1.result(), internet_checksum(src.span()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpRandomProperty,
                         ::testing::Range<std::uint64_t>(200, 220));

// ---- ALF end-to-end integrity across a loss grid ----------------------------------

struct AlfGridParam {
  double loss;
  std::size_t adu_size;
  alf::RetransmitPolicy policy;
  bool engine = false;  ///< stage 2 on an engine (workers = 0, 1 ms harvest)
};

class AlfLossGridProperty : public ::testing::TestWithParam<AlfGridParam> {};

TEST_P(AlfLossGridProperty, EveryDeliveredAduIsIntactAndAccountedFor) {
  const auto param = GetParam();
  alf::SessionConfig scfg;
  scfg.retransmit = param.policy;
  scfg.nack_delay = 10 * kMillisecond;
  scfg.nack_retry = 20 * kMillisecond;

  EventLoop loop;
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = kMillisecond;
  cfg.queue_limit = 1 << 16;
  cfg.seed = 1000 + static_cast<std::uint64_t>(param.loss * 1000) + param.adu_size;
  DuplexChannel ch(loop, cfg);
  ch.forward.set_loss_rate(param.loss);
  LinkPath data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);

  engine::Engine eng;
  alf::AlfSender sender(loop, data, fb_rx, scfg);
  alf::AlfReceiver receiver(loop, data, fb_tx, scfg);
  if (param.engine) receiver.set_engine(&eng, kMillisecond);

  // The §5 contract, per ADU: each id (ADU i travels as id i + 1) is
  // delivered or reported lost exactly once, and completion comes after
  // the last outcome.
  std::map<std::uint64_t, ByteBuffer> source;
  std::map<std::uint32_t, int> outcomes;
  std::size_t delivered = 0, lost = 0;
  int completions = 0;
  bool outcome_after_complete = false;
  auto record = [&](std::uint32_t adu_id) {
    ++outcomes[adu_id];
    outcome_after_complete |= completions > 0;
  };
  receiver.set_on_adu([&](Adu&& a) {
    ASSERT_EQ(a.payload, source.at(a.name.a));  // integrity, always
    ++delivered;
    record(static_cast<std::uint32_t>(a.name.a) + 1);
  });
  receiver.set_on_adu_lost([&](std::uint32_t adu_id, const AduName&, bool) {
    ++lost;
    record(adu_id);
  });
  receiver.set_on_complete([&] { ++completions; });
  sender.set_recompute([&](std::uint32_t, const AduName& n) {
    return std::optional<ByteBuffer>(ByteBuffer(source.at(n.a).span()));
  });

  const std::size_t kAdus = 40;
  Rng rng(42);
  for (std::uint64_t i = 0; i < kAdus; ++i) {
    ByteBuffer b(param.adu_size);
    rng.fill(b.span());
    source.emplace(i, std::move(b));
    ASSERT_TRUE(sender.send_adu(generic_name(i), source.at(i).span()).ok());
  }
  sender.finish();
  loop.run();

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(outcome_after_complete);
  EXPECT_EQ(delivered + lost, kAdus);
  EXPECT_EQ(outcomes.size(), kAdus);
  for (const auto& [adu_id, n] : outcomes) EXPECT_EQ(n, 1) << "adu " << adu_id;
  if (param.policy != alf::RetransmitPolicy::kNone && param.loss <= 0.2) {
    // Recovery should save everything at moderate loss.
    EXPECT_EQ(delivered, kAdus);
  }
  if (param.policy == alf::RetransmitPolicy::kNone) {
    EXPECT_EQ(sender.stats().adus_retransmitted, 0u);
  }
}

/// Every grid row, with stage 2 inline and then on an engine.
std::vector<AlfGridParam> alf_grid() {
  const AlfGridParam rows[] = {
      {0.0, 500, alf::RetransmitPolicy::kTransportBuffered},
      {0.01, 500, alf::RetransmitPolicy::kTransportBuffered},
      {0.05, 4000, alf::RetransmitPolicy::kTransportBuffered},
      {0.1, 4000, alf::RetransmitPolicy::kTransportBuffered},
      {0.2, 10000, alf::RetransmitPolicy::kTransportBuffered},
      {0.05, 4000, alf::RetransmitPolicy::kApplicationRecompute},
      {0.1, 10000, alf::RetransmitPolicy::kApplicationRecompute},
      {0.0, 4000, alf::RetransmitPolicy::kNone},
      {0.1, 1200, alf::RetransmitPolicy::kNone},
      {0.3, 1200, alf::RetransmitPolicy::kNone}};
  std::vector<AlfGridParam> grid;
  for (bool engine : {false, true}) {
    for (AlfGridParam p : rows) {
      p.engine = engine;
      grid.push_back(p);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, AlfLossGridProperty, ::testing::ValuesIn(alf_grid()));

// ---- BER structural fuzz: random byte strings never crash the reader --------------

class BerFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BerFuzzProperty, RandomBytesNeverCrashOrOverread) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    ByteBuffer junk(rng.uniform(64));
    rng.fill(junk.span());
    ber::BerReader r(junk.span());
    // Walk TLVs until error or end; must terminate without UB.
    int guard = 0;
    while (!r.at_end() && guard++ < 100) {
      auto tlv = r.next();
      if (!tlv.ok()) break;
    }
    SUCCEED();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BerFuzzProperty,
                         ::testing::Range<std::uint64_t>(300, 310));

// ---- ALF wire fuzz: random frames never crash decode ------------------------------

class AlfWireFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlfWireFuzzProperty, RandomFramesRejectedSafely) {
  Rng rng(GetParam());
  int accepted = 0;
  for (int iter = 0; iter < 500; ++iter) {
    ByteBuffer junk(rng.uniform(128));
    rng.fill(junk.span());
    if (alf::decode_message(junk.span()).has_value()) ++accepted;
  }
  // The 16-bit header checksum (plus magic/type) makes random acceptance
  // essentially impossible.
  EXPECT_EQ(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlfWireFuzzProperty,
                         ::testing::Range<std::uint64_t>(400, 410));

}  // namespace
}  // namespace ngp
