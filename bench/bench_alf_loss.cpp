// bench_alf_loss — reproduces E5 (§5): the head-of-line-blocking argument.
//
//   paper: "a lost packet stops the application from performing
//   presentation conversion, and to the extent it is the bottleneck, it
//   can never catch up." ALF's complete-ADU out-of-order delivery keeps
//   the application pipeline busy through recovery.
//
// Setup: transfer a file over a lossy simulated link, once with the
// TCP-like in-order stream transport and once with the ALF transport. The
// receiving application is presentation-bound: it consumes delivered data
// at a fixed rate LOWER than the link rate (the paper's premise that the
// application is the bottleneck). We model the application as a busy-until
// clock in simulated time: work arrives when the transport delivers it;
// idle gaps can never be made up.
//
// Reported per loss rate: completion time of the application pipeline,
// application idle time, and effective goodput (E5_JSON lines). Shape to
// reproduce: the stream transport's completion time grows sharply with
// loss (the app starves during recovery), while ALF degrades only by the
// retransmitted volume.
//
// The flight recorder (obs/flight.h) traces both modes per ADU / file
// region: the FLIGHT_JSON line carries each mode's completion-latency
// p50/p99, quantifying §5 at the tail — the in-order stream's p99 must
// exceed ALF's under loss. The ALF run at the trace loss rate also exports
// a Perfetto trace (validated in-bench; --trace-out=PATH to keep it) and
// runs a TelemetryHub sampling the metrics registry with SLO watchdogs on
// reassembly-buffer high-water and NACK volume.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "alf/wire.h"
#include "bench_util.h"
#include "netsim/net_path.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sessiond/sessiond.h"
#include "transport/stream_receiver.h"
#include "transport/stream_sender.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace ngp;

constexpr std::size_t kFileBytes = 2 << 20;   // 2 MB transfer
constexpr double kLinkBps = 50e6;             // 50 Mb/s link
constexpr double kAppBps = 30e6;              // app converts at 30 Mb/s
constexpr std::size_t kAduSize = 8000;        // ~2 packets per ADU
constexpr std::size_t kRegions = (kFileBytes + kAduSize - 1) / kAduSize;

constexpr std::size_t region_end(std::size_t i) {
  return std::min((i + 1) * kAduSize, kFileBytes);
}

/// Models the presentation-bound application: work is serialized onto a
/// busy-until clock; idle time accumulates whenever delivery starves it.
struct AppModel {
  SimTime busy_until = 0;
  SimDuration idle = 0;
  std::uint64_t bytes = 0;

  void consume(SimTime now, std::size_t n) {
    if (now > busy_until) {
      idle += now - busy_until;
      busy_until = now;
    }
    busy_until += transmission_time(n, kAppBps);
    bytes += n;
  }
};

struct RunResult {
  double completion_s = 0;  ///< when the app finished the last byte
  double idle_s = 0;
  double goodput_mbps = 0;
  std::uint64_t retransmit_bytes = 0;
  // Flight-recorder completion-latency summary (sim ns; 0 when untraced).
  std::size_t flight_n = 0;
  double flight_p50_ns = 0;
  double flight_p99_ns = 0;
  // ALF-run telemetry summary.
  std::uint64_t slo_firings = 0;
  std::size_t telemetry_samples = 0;
  std::string trace_json;       ///< Perfetto export (when requested)
  std::string telemetry_jsonl;  ///< time-series export (when requested)
};

LinkConfig data_link(double loss, std::uint64_t seed) {
  LinkConfig cfg;
  cfg.bandwidth_bps = kLinkBps;
  cfg.propagation_delay = 5 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  cfg.seed = seed;
  (void)loss;
  return cfg;
}

void summarize_flight(const obs::FlightTable& t, RunResult& r) {
  using Seg = obs::FlightTable::Segment;
  r.flight_n = t.segment_count(Seg::kCompletion);
  r.flight_p50_ns = t.percentile(Seg::kCompletion, 50);
  r.flight_p99_ns = t.percentile(Seg::kCompletion, 99);
}

RunResult run_stream(double loss) {
  EventLoop loop;
  DuplexChannel ch(loop, data_link(loss, 11), data_link(0, 12));
  ch.forward.set_loss_rate(loss);
  LinkPath data(ch.forward), ack_tx(ch.reverse), ack_rx(ch.reverse);

  StreamSender sender(loop, data, ack_rx);
  StreamReceiver receiver(loop, data, ack_tx);

  // The stream transport has no ADU concept — exactly the paper's point —
  // so the bench itself marks each kAduSize file region staged when the
  // sender accepts its last byte and delivered when the in-order stream
  // passes its end. Same table, same segments, comparable tails.
  auto rec = obs::make_loop_flight_recorder(loop);
  const std::uint16_t tx_track = rec.add_track("stream.tx");
  const std::uint16_t app_track = rec.add_track("stream.app");
  rec.set_enabled(true);
  std::size_t staged_region = 0;
  std::size_t done_region = 0;
  std::uint64_t delivered = 0;

  AppModel app;
  receiver.set_on_data([&](ConstBytes b) {
    app.consume(loop.now(), b.size());
    delivered += b.size();
    while (done_region < kRegions && region_end(done_region) <= delivered) {
      rec.record(app_track, obs::FlightStage::kDeliver,
                 obs::flight_trace_id(1, static_cast<std::uint32_t>(done_region) + 1),
                 region_end(done_region) - done_region * kAduSize);
      ++done_region;
    }
  });

  ByteBuffer file(kFileBytes);
  Rng rng(1);
  rng.fill(file.span());
  // Feed the transport as its buffer drains.
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    offset += sender.send(file.subspan(offset, 256 * 1024));
    while (staged_region < kRegions && region_end(staged_region) <= offset) {
      rec.record(tx_track, obs::FlightStage::kStaged,
                 obs::flight_trace_id(1, static_cast<std::uint32_t>(staged_region) + 1),
                 region_end(staged_region) - staged_region * kAduSize);
      ++staged_region;
    }
    if (offset < kFileBytes) {
      loop.schedule_after(kMillisecond, feed);
    } else {
      sender.close();
    }
  };
  feed();
  loop.run();

  RunResult r;
  r.completion_s = to_seconds(app.busy_until);
  r.idle_s = to_seconds(app.idle);
  r.goodput_mbps = megabits_per_second(app.bytes, r.completion_s);
  r.retransmit_bytes = sender.stats().retransmits * sender.mss();
  summarize_flight(rec.latency_table(), r);
  return r;
}

RunResult run_alf(double loss, bool want_exports) {
  EventLoop loop;
  DuplexChannel ch(loop, data_link(loss, 21), data_link(0, 22));
  ch.forward.set_loss_rate(loss);
  LinkPath data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);

  sessiond::Sessiond daemon(loop);
  auto scfg = alf::SessionConfig::builder()
                  .nack_delay(15 * kMillisecond)
                  .nack_retry(30 * kMillisecond)
                  .build();
  auto handle = daemon.open(scfg.value(), {&data, &fb_tx, &fb_rx});
  if (!handle.ok()) std::abort();
  sessiond::SessionHandle& sess = handle.value();

  // End-to-end flight recording: sender staging/framing, every data-link
  // event (tagged from the wire header — the link itself learns no ALF),
  // receiver reassembly/placement/delivery. Track registration order is
  // part of the trace schema — sender, link, receiver, as before.
  auto rec = obs::make_loop_flight_recorder(loop);
  sess.sender().set_flight(&rec);
  ch.forward.set_flight(&rec, "link.fwd", &alf::peek_flight_tag);
  sess.receiver().set_flight(&rec);
  rec.set_enabled(true);

  RunResult r;

  // Telemetry: sample the whole stack's registry on the sim clock; watch
  // the reassembly buffer (holes pinning memory) and the NACK volume.
  obs::MetricsRegistry reg;
  sess.sender().register_metrics(reg, "alf.tx");
  sess.receiver().register_metrics(reg, "alf.rx");
  ch.forward.register_metrics(reg, "link.fwd");
  obs::TelemetryConfig tcfg;
  tcfg.interval = 20 * kMillisecond;
  obs::TelemetryHub hub(&loop, reg, tcfg);
  obs::SloWatch buf_watch;
  buf_watch.metric = "alf.rx.reassembly_bytes";
  buf_watch.threshold = 32 * 1024.0;
  hub.add_watch(buf_watch, [&r](const obs::SloEvent&) { ++r.slo_firings; });
  obs::SloWatch nack_watch;
  nack_watch.metric = "alf.tx.nacks_received";
  nack_watch.threshold = 10.0;
  hub.add_watch(nack_watch, [&r](const obs::SloEvent&) { ++r.slo_firings; });
  hub.start();

  AppModel app;
  sess.set_on_adu([&](Adu&& a) { app.consume(loop.now(), a.payload.size()); });

  ByteBuffer file(kFileBytes);
  Rng rng(1);
  rng.fill(file.span());
  for (std::size_t off = 0; off < kFileBytes; off += kAduSize) {
    const std::size_t len = std::min(kAduSize, kFileBytes - off);
    auto name = FileRegionName{off, len}.to_name();
    auto res = sess.send_adu(name, file.span().subspan(off, len));
    if (!res.ok()) std::abort();
  }
  sess.finish();
  loop.run();

  r.completion_s = to_seconds(app.busy_until);
  r.idle_s = to_seconds(app.idle);
  r.goodput_mbps = megabits_per_second(app.bytes, r.completion_s);
  r.retransmit_bytes = sess.sender().stats().adus_retransmitted * kAduSize;
  summarize_flight(rec.latency_table(), r);
  r.telemetry_samples = hub.samples().size();
  if (want_exports) {
    r.trace_json = rec.to_perfetto_json();
    r.telemetry_jsonl = hub.to_jsonl();
    std::printf("\nALF per-ADU flight breakdown at %.1f%% loss (first rows):\n%s",
                loss * 100, rec.latency_table().to_text(8).c_str());
  }
  return r;
}

/// Bench-side schema self-check for the exported Perfetto trace: it must
/// be structurally valid JSON and carry the trace_event envelope keys.
bool trace_export_valid(const std::string& trace) {
  if (!ngp::bench::json_well_formed(trace)) return false;
  return trace.find("\"traceEvents\"") != std::string::npos &&
         trace.find("\"displayTimeUnit\"") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ngp::bench::parse_args(&argc, argv);
  std::printf("=== E5 (paper §5): in-order transport vs ALF under loss ===\n");
  std::printf("file %zu bytes, link %.0f Mb/s, presentation-bound app %.0f Mb/s\n\n",
              static_cast<std::size_t>(kFileBytes), kLinkBps / 1e6, kAppBps / 1e6);
  std::printf("%8s | %28s | %28s\n", "", "TCP-like in-order stream", "ALF out-of-order ADUs");
  std::printf("%8s | %8s %9s %8s | %8s %9s %8s\n", "loss", "time(s)", "idle(s)",
              "Mb/s", "time(s)", "idle(s)", "Mb/s");

  const std::vector<double> sweep =
      args.smoke ? std::vector<double>{0.0, 0.02}
                 : std::vector<double>{0.0, 0.001, 0.005, 0.01, 0.02, 0.05};
  constexpr double kTraceLoss = 0.02;  ///< loss rate traced + exported

  const double min_time = to_seconds(transmission_time(kFileBytes, kAppBps));
  double stream_base = 0, alf_base = 0;
  double stream_degradation = 0, alf_degradation = 0;
  RunResult traced_stream, traced_alf;

  for (double loss : sweep) {
    RunResult s = run_stream(loss);
    RunResult a = run_alf(loss, loss == kTraceLoss);
    std::printf("%7.1f%% | %8.3f %9.3f %8.1f | %8.3f %9.3f %8.1f\n", loss * 100,
                s.completion_s, s.idle_s, s.goodput_mbps, a.completion_s, a.idle_s,
                a.goodput_mbps);
    ngp::bench::JsonWriter row;
    row.field("loss", loss)
        .field("stream_s", s.completion_s)
        .field("stream_idle_s", s.idle_s)
        .field("stream_mbps", s.goodput_mbps)
        .field("alf_s", a.completion_s)
        .field("alf_idle_s", a.idle_s)
        .field("alf_mbps", a.goodput_mbps)
        .field("alf_retransmit_bytes", a.retransmit_bytes);
    ngp::bench::emit_json("E5_JSON", row.str());
    if (loss == 0.0) {
      stream_base = s.completion_s;
      alf_base = a.completion_s;
    }
    if (loss == sweep.back()) {
      stream_degradation = s.completion_s / stream_base;
      alf_degradation = a.completion_s / alf_base;
    }
    if (loss == kTraceLoss) {
      traced_stream = std::move(s);
      traced_alf = std::move(a);
    }
  }

  std::printf("\napp-limited floor (zero idle): %.3f s\n", min_time);
  std::printf("degradation at %.1f%% loss: stream %.2fx, ALF %.2fx\n",
              sweep.back() * 100, stream_degradation, alf_degradation);
  std::printf("shape check (paper §5): ALF degrades less than the in-order stream\n"
              "under loss because complete ADUs keep the presentation pipeline\n"
              "busy during recovery -> %s\n",
              alf_degradation < stream_degradation ? "HOLDS" : "FAILS");

  // §5 at the tail, per ADU: the in-order stream's p99 region-completion
  // latency must exceed ALF's under the traced loss (head-of-line blocking
  // concentrates in the tail). Only measurable in NGP_OBS builds.
  if (obs::kEnabled) {
    const bool tail_holds =
        traced_stream.flight_p99_ns > traced_alf.flight_p99_ns;
    std::printf("\nper-ADU completion latency at %.1f%% loss (flight recorder):\n"
                "  stream: n=%zu p50=%.3f ms p99=%.3f ms\n"
                "  alf:    n=%zu p50=%.3f ms p99=%.3f ms\n"
                "tail check (stream p99 > alf p99): %s\n",
                kTraceLoss * 100, traced_stream.flight_n,
                traced_stream.flight_p50_ns / 1e6, traced_stream.flight_p99_ns / 1e6,
                traced_alf.flight_n, traced_alf.flight_p50_ns / 1e6,
                traced_alf.flight_p99_ns / 1e6, tail_holds ? "HOLDS" : "FAILS");
    ngp::bench::JsonWriter stream_j, alf_j, flight;
    stream_j.field("n", traced_stream.flight_n)
        .field("p50_ns", traced_stream.flight_p50_ns)
        .field("p99_ns", traced_stream.flight_p99_ns);
    alf_j.field("n", traced_alf.flight_n)
        .field("p50_ns", traced_alf.flight_p50_ns)
        .field("p99_ns", traced_alf.flight_p99_ns);
    flight.field("loss", kTraceLoss)
        .field("obs_enabled", true)
        .raw("stream", stream_j.str())
        .raw("alf", alf_j.str())
        .field("tail_holds", tail_holds);
    ngp::bench::emit_json("FLIGHT_JSON", flight.str());
  } else {
    ngp::bench::emit_json("FLIGHT_JSON",
                          ngp::bench::JsonWriter().field("obs_enabled", false).str());
  }

  ngp::bench::JsonWriter telem;
  telem.field("samples", traced_alf.telemetry_samples)
      .field("slo_firings", traced_alf.slo_firings);
  ngp::bench::emit_json("TELEMETRY_JSON", telem.str());

  // Self-check the exports: a trace that will not load in Perfetto, or a
  // telemetry line that is not valid JSON, fails the bench outright.
  if (!trace_export_valid(traced_alf.trace_json)) {
    std::fprintf(stderr, "FATAL: exported Perfetto trace failed validation\n");
    return 1;
  }
  std::size_t start = 0;
  while (start < traced_alf.telemetry_jsonl.size()) {
    std::size_t nl = traced_alf.telemetry_jsonl.find('\n', start);
    if (nl == std::string::npos) nl = traced_alf.telemetry_jsonl.size();
    const std::string_view line(traced_alf.telemetry_jsonl.data() + start, nl - start);
    if (!line.empty() && !ngp::bench::json_well_formed(line)) {
      std::fprintf(stderr, "FATAL: telemetry JSONL line failed validation\n");
      return 1;
    }
    start = nl + 1;
  }
  if (!args.trace_out.empty()) {
    std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL: cannot open %s\n", args.trace_out.c_str());
      return 1;
    }
    std::fwrite(traced_alf.trace_json.data(), 1, traced_alf.trace_json.size(), f);
    std::fclose(f);
    std::printf("wrote Perfetto trace to %s (open at https://ui.perfetto.dev)\n",
                args.trace_out.c_str());
  }
  return 0;
}
