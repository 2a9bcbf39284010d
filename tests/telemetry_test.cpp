// telemetry_test — the time-series telemetry hub (obs/telemetry.h) and the
// registry primitives it samples: delta_snapshot() differencing and
// histogram_percentile() reduction (obs/metrics.h).
//
// The hub is harness machinery compiled in regardless of NGP_OBS, so unlike
// flight_test nothing here branches on obs::kEnabled.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/event_loop.h"
#include "util/stats.h"

namespace ngp::obs {
namespace {

/// Mutable backing store a registry source reads on demand — the test
/// plays the component.
struct FakeComponent {
  std::uint64_t packets = 0;
  double depth = 0.0;
  Histogram latency{0.0, 100.0, 10};

  void emit_metrics(MetricSink& s) const {
    s.counter("packets", packets);
    s.gauge("depth", depth);
    s.histogram("latency", latency);
  }
};

std::uint64_t bucket_sum(const Sample* s) {
  std::uint64_t n = 0;
  if (s != nullptr) {
    for (std::uint64_t b : s->buckets) n += b;
    n += s->underflow + s->overflow;
  }
  return n;
}

TEST(DeltaSnapshot, DifferencesCountersAndPassesGaugesThrough) {
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);

  c.packets = 10;
  c.depth = 2.5;
  c.latency.add(5.0);
  Snapshot abs1;
  Snapshot d1 = reg.delta_snapshot(&abs1);
  // First delta runs against an empty mark: delta == absolute.
  EXPECT_EQ(d1.counter_or("c.packets"), 10u);
  EXPECT_EQ(abs1.counter_or("c.packets"), 10u);
  EXPECT_DOUBLE_EQ(d1.gauge_or("c.depth"), 2.5);
  EXPECT_EQ(bucket_sum(d1.find("c.latency")), 1u);

  c.packets = 25;
  c.depth = 1.0;  // gauges are levels, not flows: no differencing
  c.latency.add(15.0);
  c.latency.add(95.0);
  Snapshot abs2;
  Snapshot d2 = reg.delta_snapshot(&abs2);
  EXPECT_EQ(d2.counter_or("c.packets"), 15u);
  EXPECT_EQ(abs2.counter_or("c.packets"), 25u);
  EXPECT_DOUBLE_EQ(d2.gauge_or("c.depth"), 1.0);
  EXPECT_EQ(bucket_sum(d2.find("c.latency")), 2u);
  EXPECT_EQ(bucket_sum(abs2.find("c.latency")), 3u);

  // A component reset moves the counter backwards; the delta saturates at
  // zero instead of exporting a huge wrapped difference.
  c.packets = 5;
  Snapshot d3 = reg.delta_snapshot();
  EXPECT_EQ(d3.counter_or("c.packets"), 0u);
}

TEST(HistogramPercentileTest, ReducesBucketsWithInterpolation) {
  Sample s;
  s.kind = Sample::Kind::kHistogram;
  s.lo = 0.0;
  s.hi = 100.0;
  s.buckets = {10, 0, 0, 0, 0, 0, 0, 0, 0, 10};  // bimodal: [0,10) and [90,100)
  s.count = 20;  // total observations, as registry snapshots set it
  EXPECT_LE(histogram_percentile(s, 50.0), 10.0);
  EXPECT_GT(histogram_percentile(s, 50.0), 0.0);
  EXPECT_GE(histogram_percentile(s, 99.0), 90.0);
  EXPECT_LE(histogram_percentile(s, 99.0), 100.0);

  Sample empty;
  empty.kind = Sample::Kind::kHistogram;
  EXPECT_DOUBLE_EQ(histogram_percentile(empty, 99.0), 0.0);
  Sample counter;  // non-histograms reduce to 0, never garbage
  counter.kind = Sample::Kind::kCounter;
  counter.count = 7;
  EXPECT_DOUBLE_EQ(histogram_percentile(counter, 99.0), 0.0);
}

// The documented edge-case contract (obs/metrics.h): these pins are what
// let TelemetryHub SLO thresholds and the perf harness trust percentile
// values at the extremes.
TEST(HistogramPercentileTest, EdgeCasesPinned) {
  Sample s;
  s.kind = Sample::Kind::kHistogram;
  s.lo = 0.0;
  s.hi = 100.0;
  s.buckets = {0, 4, 0, 0, 0, 0, 0, 0, 0, 0};  // all mass in [10,20)
  s.count = 4;

  // p clamps: NaN and negatives behave like p=0, p>100 like p=100.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(histogram_percentile(s, nan), histogram_percentile(s, 0.0));
  EXPECT_DOUBLE_EQ(histogram_percentile(s, -5.0), histogram_percentile(s, 0.0));
  EXPECT_DOUBLE_EQ(histogram_percentile(s, 250.0),
                   histogram_percentile(s, 100.0));

  // p=0 is the lower edge of the lowest OCCUPIED bucket, not `lo`; p=100
  // is that bucket's upper edge, not `hi` — no mass lives outside it.
  EXPECT_DOUBLE_EQ(histogram_percentile(s, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(s, 100.0), 20.0);

  // A single-sample histogram reports within its bucket at every p.
  Sample one;
  one.kind = Sample::Kind::kHistogram;
  one.lo = 0.0;
  one.hi = 10.0;
  one.buckets = {0, 0, 0, 0, 1, 0, 0, 0, 0, 0};  // one sample in [4,5)
  one.count = 1;
  for (double p : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(histogram_percentile(one, p), 4.0) << "p=" << p;
    EXPECT_LE(histogram_percentile(one, p), 5.0) << "p=" << p;
  }

  // Underflow mass collapses to lo; overflow mass to hi.
  Sample tails;
  tails.kind = Sample::Kind::kHistogram;
  tails.lo = 0.0;
  tails.hi = 100.0;
  tails.buckets = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  tails.underflow = 3;
  tails.overflow = 3;
  tails.count = 6;
  EXPECT_DOUBLE_EQ(histogram_percentile(tails, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(tails, 99.0), 100.0);
}

TEST(DeltaSnapshot, SequenceNumberIsMonotonicAndSampled) {
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);
  EXPECT_EQ(reg.delta_sequence(), 0u);
  (void)reg.delta_snapshot();
  EXPECT_EQ(reg.delta_sequence(), 1u);
  (void)reg.delta_snapshot();
  (void)reg.delta_snapshot();
  EXPECT_EQ(reg.delta_sequence(), 3u);
  // Plain snapshots do not advance the series.
  (void)reg.snapshot();
  EXPECT_EQ(reg.delta_sequence(), 3u);

  // The hub stamps the registry's sequence onto each sample and exports
  // it, so ordering survives the JSONL round trip.
  EventLoop loop;
  TelemetryHub hub(&loop, reg);
  hub.sample_at(10);
  hub.sample_at(20);
  ASSERT_EQ(hub.samples().size(), 2u);
  EXPECT_EQ(hub.samples()[0].seq + 1, hub.samples()[1].seq);
  const std::string jsonl = hub.to_jsonl();
  EXPECT_NE(jsonl.find("\"seq\":4"), std::string::npos);
  EXPECT_NE(jsonl.find("\"seq\":5"), std::string::npos);
}

TEST(HistogramPercentileTest, SummariesAppearInSnapshotExports) {
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);
  for (int i = 0; i < 20; ++i) c.latency.add(5.0 * i);
  const Snapshot snap = reg.snapshot();
  EXPECT_NE(snap.to_text().find("p50="), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(TelemetryHubTest, PeriodicSamplingStandsDownWhenTheLoopDrains) {
  EventLoop loop;
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);
  TelemetryConfig cfg;
  cfg.interval = 10 * kMillisecond;
  TelemetryHub hub(&loop, reg, cfg);

  for (int i = 1; i <= 5; ++i) {
    loop.schedule_after(i * 9 * kMillisecond, [&c] { c.packets += 3; });
  }
  hub.start();
  EXPECT_TRUE(hub.running());
  loop.run();  // returning at all proves the hub released the loop

  EXPECT_FALSE(hub.running());
  const auto& samples = hub.samples();
  ASSERT_GE(samples.size(), 3u);
  EXPECT_EQ(samples.front().at, 0);  // baseline at start()
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].at, samples[i - 1].at);
    EXPECT_EQ(samples[i].at % (10 * kMillisecond), 0);
  }
  // Deltas tile the run: summed, they reproduce the component's total.
  std::uint64_t total = 0;
  for (const auto& s : samples) total += s.delta.counter_or("c.packets");
  EXPECT_EQ(total, 15u);
  EXPECT_EQ(hub.stats().samples_taken, samples.size());
  EXPECT_EQ(hub.stats().last_sample_at, samples.back().at);
}

TEST(TelemetryHubTest, WatchdogIsEdgeTriggered) {
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);
  TelemetryHub hub(nullptr, reg);  // manual mode: no loop

  SloWatch watch;
  watch.metric = "c.depth";
  watch.threshold = 3.0;
  std::vector<SloEvent> firings;
  hub.add_watch(watch, [&](const SloEvent& e) { firings.push_back(e); });

  c.depth = 5.0;
  hub.sample_at(1);  // crosses: fires
  c.depth = 6.0;
  hub.sample_at(2);  // still breached: armed-off, silent
  c.depth = 1.0;
  hub.sample_at(3);  // clears: re-arms
  c.depth = 9.0;
  hub.sample_at(4);  // crosses again: fires

  ASSERT_EQ(firings.size(), 2u);
  EXPECT_EQ(firings[0].metric, "c.depth");
  EXPECT_DOUBLE_EQ(firings[0].value, 5.0);
  EXPECT_DOUBLE_EQ(firings[0].threshold, 3.0);
  EXPECT_EQ(firings[0].at, 1);
  EXPECT_EQ(firings[1].at, 4);
  EXPECT_EQ(hub.stats().watchdog_firings, 2u);
}

TEST(TelemetryHubTest, WatchdogFireBelowAndHistogramPercentileModes) {
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);
  TelemetryHub hub(nullptr, reg);

  SloWatch low;  // e.g. goodput floor
  low.metric = "c.depth";
  low.threshold = 2.0;
  low.fire_above = false;
  std::uint64_t low_firings = 0;
  hub.add_watch(low, [&](const SloEvent&) { ++low_firings; });

  SloWatch tail;  // e.g. p99 latency ceiling
  tail.metric = "c.latency";
  tail.threshold = 90.0;
  tail.percentile = 99.0;
  std::uint64_t tail_firings = 0;
  hub.add_watch(tail, [&](const SloEvent&) { ++tail_firings; });

  c.depth = 10.0;
  hub.sample_at(0);  // empty histogram: p99 == 0, must NOT fire the ceiling
  EXPECT_EQ(tail_firings, 0u);
  EXPECT_EQ(low_firings, 0u);

  // 10 of 60 samples in the top bucket puts p99 firmly over the ceiling.
  for (int i = 0; i < 50; ++i) c.latency.add(1.0);
  for (int i = 0; i < 10; ++i) c.latency.add(99.0);
  c.depth = 0.5;
  hub.sample_at(1);
  EXPECT_EQ(low_firings, 1u);
  EXPECT_EQ(tail_firings, 1u);
}

TEST(TelemetryHubTest, BoundedSeriesDropsOldest) {
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);
  TelemetryConfig cfg;
  cfg.max_samples = 4;
  TelemetryHub hub(nullptr, reg, cfg);
  for (SimTime t = 1; t <= 6; ++t) hub.sample_at(t);

  EXPECT_EQ(hub.samples().size(), 4u);
  EXPECT_EQ(hub.samples().front().at, 3);
  EXPECT_EQ(hub.samples().back().at, 6);
  EXPECT_EQ(hub.stats().samples_taken, 6u);
  EXPECT_EQ(hub.stats().samples_dropped, 2u);

  // The hub's own counters export like any component's.
  MetricsRegistry meta;
  meta.add("hub", hub);
  const Snapshot snap = meta.snapshot();
  EXPECT_EQ(snap.counter_or("hub.samples"), 6u);
  EXPECT_EQ(snap.counter_or("hub.samples_dropped"), 2u);
}

TEST(TelemetryHubTest, JsonlExportIsDeterministicOneObjectPerLine) {
  auto run_once = [] {
    MetricsRegistry reg;
    FakeComponent c;
    reg.add("c", c);
    TelemetryHub hub(nullptr, reg);
    for (SimTime t = 0; t < 3; ++t) {
      c.packets += 7;
      c.latency.add(static_cast<double>(10 * t));
      hub.sample_at(t * kMillisecond);
    }
    return hub.to_jsonl();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);

  std::size_t lines = 0;
  std::size_t pos = 0;
  while ((pos = a.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(a.rfind("{\"t\":0,", 0), 0u);
  EXPECT_NE(a.find("\"delta\":{\"metrics\":["), std::string::npos);
}

TEST(TelemetryHubTest, StopCancelsTheTimerAndKeepsTheSeries) {
  EventLoop loop;
  MetricsRegistry reg;
  FakeComponent c;
  reg.add("c", c);
  TelemetryHub hub(&loop, reg);
  loop.schedule_after(kSecond, [] {});  // pending work the hub would track
  hub.start();
  ASSERT_TRUE(hub.running());
  hub.stop();
  EXPECT_FALSE(hub.running());
  loop.run();
  // Only the baseline sample was taken; stop() did not discard it.
  EXPECT_EQ(hub.samples().size(), 1u);
  EXPECT_EQ(hub.stats().samples_taken, 1u);
}

}  // namespace
}  // namespace ngp::obs
