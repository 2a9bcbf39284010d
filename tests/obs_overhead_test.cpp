// Guards the observability cost discipline: metrics registration and cost
// accounting are snapshot-on-demand / analytic (O(1) per operation), and
// flight recording vanishes when NGP_OBS=OFF. The CMake NGP_OBS option
// promises an OFF build within ~1% of the uninstrumented seed throughput;
// wall-clock assertions that tight are CI noise, so this test checks the
// structural facts that make the promise hold — no per-word work, no
// recorded state when disabled — plus one very lenient timing smoke.
#include <gtest/gtest.h>

#include <chrono>

#include "checksum/internet.h"
#include "obs/cost.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace ngp {
namespace {

TEST(ObsOverhead, CostChargingIsAnalyticNotPerWord) {
  // Charging a terabyte-sized operation is a handful of integer adds —
  // if this test returns at all, the charge cannot be per-word.
  obs::CostAccount acct;
  const std::size_t huge = std::size_t{1} << 40;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) acct.charge_fused(huge);
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(acct.operations, 1000u);
  EXPECT_EQ(acct.word_loads, 1000u * obs::CostAccount::words(huge));
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(dt).count(), 100);
}

TEST(ObsOverhead, RegistrationDoesNotTouchTheHotPath) {
  // add_source stores a callback; nothing runs until snapshot(). A
  // registered component therefore pays zero until somebody asks.
  obs::MetricsRegistry reg;
  int runs = 0;
  for (int i = 0; i < 64; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    reg.add_source(name, [&](obs::MetricSink&) { ++runs; });
  }
  EXPECT_EQ(runs, 0);
  (void)reg.snapshot();
  EXPECT_EQ(runs, 64);
}

TEST(ObsOverhead, FlightRecordingFollowsTheSameDiscipline) {
  if constexpr (obs::kEnabled) {
    // ON build: a runtime-disabled flight recorder accumulates nothing —
    // the datapath pays one relaxed-atomic load per event and no more.
    obs::FlightRecorder rec(+[](const void*) -> SimTime { return 0; }, nullptr);
    const std::uint16_t t = rec.add_track("hot");
    for (int i = 0; i < 1000; ++i) {
      rec.record(t, obs::FlightStage::kFragTx, obs::flight_trace_id(1, 1), 64);
    }
    EXPECT_EQ(rec.stats().events_recorded, 0u);
    EXPECT_EQ(rec.stats().events_dropped, 0u);
  } else {
    // OFF build: every method is an empty inline body — tracks don't even
    // register, and the exports are constant minimal envelopes.
    obs::FlightRecorder rec(nullptr, nullptr);
    rec.set_enabled(true);  // even asking for recording is a no-op
    EXPECT_EQ(rec.add_track("hot"), 0u);
    EXPECT_EQ(rec.track_count(), 0u);
    rec.record(0, obs::FlightStage::kFragTx, obs::flight_trace_id(1, 1), 64);
    obs::flight_record(&rec, 0, obs::FlightStage::kDeliver, 1, 64);
    EXPECT_EQ(rec.stats().events_recorded, 0u);
    EXPECT_TRUE(rec.latency_table().empty());
    EXPECT_EQ(rec.to_perfetto_json(),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
  }
}

TEST(ObsOverhead, NullSpanTimingSmoke) {
  // The per-event cost with a null recorder is one pointer test. Compare a
  // checksum loop with and without a flight event per iteration; allow
  // generous slack (3x) because CI timing is noisy — the ~1% claim is
  // validated by the structural tests above and by running bench_stack on
  // an NGP_OBS=OFF build.
  ByteBuffer buf(1 << 16);
  Rng(0x0B5).fill(buf.span());
  constexpr int kIters = 400;

  volatile std::uint32_t sink = 0;
  auto bare = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) sink = internet_checksum(buf.span());
    return std::chrono::steady_clock::now() - t0;
  };
  auto recorded = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      obs::flight_record(nullptr, 0, obs::FlightStage::kManipBegin, 1,
                         buf.size());
      sink = internet_checksum(buf.span());
    }
    return std::chrono::steady_clock::now() - t0;
  };
  (void)bare();  // warm-up
  const auto without = bare();
  const auto with = recorded();
  EXPECT_LT(with.count(), 3 * without.count() + 1'000'000);
}

}  // namespace
}  // namespace ngp
