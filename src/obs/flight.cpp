#include "obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace ngp::obs {

namespace {

constexpr std::string_view kStageNames[kFlightStageCount] = {
    "staged",        "frag_tx",      "retransmit_tx", "link_enqueue",
    "link_drop",     "link_deliver", "fault_corrupt", "fault_drop",
    "frag_rx",       "adu_complete", "engine_submit", "worker_begin",
    "worker_end",    "harvest",      "manip_begin",   "manip_end",
    "deliver",       "abandon",      "shed",          "session_fail",
    "epoch_resume",  "probe_tx",     "failover",      "session_create",
    "session_evict", "buf_recycle",
};

constexpr std::string_view kSegmentNames[FlightTable::kSegmentCount] = {
    "send_to_first_byte", "network",      "reassembly_wait",
    "engine_queue",       "manipulation", "completion",
};

}  // namespace

std::string_view flight_stage_name(FlightStage s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < kFlightStageCount ? kStageNames[i] : std::string_view("?");
}

std::string_view FlightTable::segment_name(Segment s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < kSegmentCount ? kSegmentNames[i] : std::string_view("?");
}

FlightTable::FlightTable(std::vector<FlightRow> rows) : rows_(std::move(rows)) {
  std::sort(rows_.begin(), rows_.end(),
            [](const FlightRow& a, const FlightRow& b) {
              return a.trace_id < b.trace_id;
            });
  auto push = [this](Segment seg, SimTime a, SimTime b) {
    if (a < 0 || b < 0) return;
    seg_[static_cast<std::size_t>(seg)].add(static_cast<double>(b - a));
  };
  for (const FlightRow& r : rows_) {
    if (r.delivered >= 0) ++delivered_;
    if (r.abandoned) ++abandoned_;
    push(Segment::kSendToFirstByte, r.staged, r.first_rx);
    push(Segment::kNetwork, r.first_tx, r.first_rx);
    push(Segment::kReassemblyWait, r.first_rx, r.complete);
    push(Segment::kEngineQueue, r.submit, r.harvest);
    push(Segment::kManipulation, r.manip_begin, r.manip_end);
    push(Segment::kCompletion, r.staged, r.delivered);
  }
}

double FlightTable::percentile(Segment seg, double p) const {
  return seg_[static_cast<std::size_t>(seg)].percentile(p);
}

std::size_t FlightTable::segment_count(Segment seg) const {
  return seg_[static_cast<std::size_t>(seg)].count();
}

std::string FlightTable::to_text(std::size_t max_rows) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-12s %10s %10s %10s %10s %10s %10s\n",
                "trace_id", "first_byte", "network", "reasm", "eng_queue",
                "manip", "complete");
  out += buf;
  auto cell = [](SimTime a, SimTime b, char* dst, std::size_t n) {
    if (a < 0 || b < 0) {
      std::snprintf(dst, n, "%10s", "-");
    } else {
      std::snprintf(dst, n, "%10lld", static_cast<long long>(b - a));
    }
  };
  std::size_t shown = 0;
  for (const FlightRow& r : rows_) {
    if (max_rows != 0 && shown >= max_rows) break;
    ++shown;
    char c[6][24];
    cell(r.staged, r.first_rx, c[0], sizeof c[0]);
    cell(r.first_tx, r.first_rx, c[1], sizeof c[1]);
    cell(r.first_rx, r.complete, c[2], sizeof c[2]);
    cell(r.submit, r.harvest, c[3], sizeof c[3]);
    cell(r.manip_begin, r.manip_end, c[4], sizeof c[4]);
    cell(r.staged, r.delivered, c[5], sizeof c[5]);
    std::snprintf(buf, sizeof buf, "%-12llu %s %s %s %s %s %s%s\n",
                  static_cast<unsigned long long>(r.trace_id), c[0], c[1],
                  c[2], c[3], c[4], c[5], r.abandoned ? "  ABANDONED" : "");
    out += buf;
  }
  if (max_rows != 0 && rows_.size() > shown) {
    std::snprintf(buf, sizeof buf, "... (%zu more rows)\n",
                  rows_.size() - shown);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "adus=%zu delivered=%zu abandoned=%zu (latencies in sim ns)\n",
                rows_.size(), delivered_, abandoned_);
  out += buf;
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    const auto seg = static_cast<Segment>(i);
    std::snprintf(buf, sizeof buf,
                  "%-20s n=%-6zu p50=%-12.0f p95=%-12.0f p99=%.0f\n",
                  std::string(segment_name(seg)).c_str(), segment_count(seg),
                  percentile(seg, 50), percentile(seg, 95),
                  percentile(seg, 99));
    out += buf;
  }
  return out;
}

std::string FlightTable::to_json() const {
  std::string out = "{\"flight\":{\"adus\":" + std::to_string(rows_.size());
  out += ",\"delivered\":" + std::to_string(delivered_);
  out += ",\"abandoned\":" + std::to_string(abandoned_);
  out += ",\"segments\":{";
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    const auto seg = static_cast<Segment>(i);
    if (i > 0) out += ',';
    out += '"';
    out += segment_name(seg);
    out += "\":{\"n\":" + std::to_string(segment_count(seg));
    out += ",\"p50\":" + format_double(percentile(seg, 50));
    out += ",\"p95\":" + format_double(percentile(seg, 95));
    out += ",\"p99\":" + format_double(percentile(seg, 99));
    out += '}';
  }
  out += "}}}";
  return out;
}

#if NGP_OBS_ENABLED

namespace {

/// Appends a sim-time ns value as Chrome trace microseconds ("123.456"),
/// built from integer arithmetic so the export never depends on
/// floating-point formatting.
void append_us(std::string& out, SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::uint16_t FlightRecorder::add_track(std::string_view name) {
  shards_.push_back(
      std::make_unique<Shard>(std::string(name), cfg_.events_per_track));
  return static_cast<std::uint16_t>(shards_.size() - 1);
}

void FlightRecorder::record_at(std::uint16_t track, SimTime at,
                               FlightStage stage, std::uint64_t trace_id,
                               std::uint64_t arg) {
  if (!enabled()) return;
  if (track >= shards_.size()) return;
  Shard& s = *shards_[track];
  const std::uint64_t h = s.head.load(std::memory_order_relaxed);
  const std::size_t cap = s.ring.size();
  if (cap == 0) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (h >= cap) s.dropped.fetch_add(1, std::memory_order_relaxed);
  s.ring[static_cast<std::size_t>(h % cap)] =
      FlightEvent{at, trace_id, arg, track, stage};
  s.head.store(h + 1, std::memory_order_relaxed);
}

FlightStats FlightRecorder::stats() const {
  FlightStats st;
  st.tracks = shards_.size();
  for (const auto& s : shards_) {
    st.events_recorded += s->head.load(std::memory_order_relaxed);
    st.events_dropped += s->dropped.load(std::memory_order_relaxed);
  }
  return st;
}

std::vector<FlightEvent> FlightRecorder::shard_events(const Shard& s) const {
  const std::uint64_t h = s.head.load(std::memory_order_relaxed);
  const std::size_t cap = s.ring.size();
  std::vector<FlightEvent> out;
  if (cap == 0 || h == 0) return out;
  const std::uint64_t live = std::min<std::uint64_t>(h, cap);
  out.reserve(static_cast<std::size_t>(live));
  for (std::uint64_t i = h - live; i < h; ++i) {
    out.push_back(s.ring[static_cast<std::size_t>(i % cap)]);
  }
  return out;
}

FlightTable FlightRecorder::latency_table() const {
  // Rebuild rows keyed by trace id. first_* keep the earliest sighting;
  // the rest keep the latest (a retransmitted ADU's final, successful
  // attempt is the journey that mattered).
  std::vector<FlightRow> rows;
  auto row_for = [&rows](std::uint64_t id) -> FlightRow& {
    for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
      if (it->trace_id == id) return *it;
    }
    rows.push_back(FlightRow{});
    rows.back().trace_id = id;
    return rows.back();
  };
  auto first = [](SimTime& slot, SimTime at) {
    if (slot < 0 || at < slot) slot = at;
  };
  auto last = [](SimTime& slot, SimTime at) {
    if (at >= slot) slot = at;
  };
  for (const auto& shard : shards_) {
    for (const FlightEvent& e : shard_events(*shard)) {
      if (e.trace_id == 0) continue;
      FlightRow& r = row_for(e.trace_id);
      switch (e.stage) {
        case FlightStage::kStaged:
          first(r.staged, e.at);
          if (r.bytes == 0) r.bytes = e.arg;
          break;
        case FlightStage::kFragTx:
        case FlightStage::kRetransmitTx:
          first(r.first_tx, e.at);
          break;
        case FlightStage::kFragRx:
          first(r.first_rx, e.at);
          break;
        case FlightStage::kAduComplete:
          last(r.complete, e.at);
          break;
        case FlightStage::kEngineSubmit:
          last(r.submit, e.at);
          break;
        case FlightStage::kWorkerBegin:
        case FlightStage::kManipBegin:
          last(r.manip_begin, e.at);
          break;
        case FlightStage::kWorkerEnd:
        case FlightStage::kManipEnd:
          last(r.manip_end, e.at);
          break;
        case FlightStage::kHarvest:
          last(r.harvest, e.at);
          break;
        case FlightStage::kDeliver:
          last(r.delivered, e.at);
          if (e.arg != 0) r.bytes = e.arg;
          break;
        case FlightStage::kAbandon:
        case FlightStage::kShed:
          r.abandoned = true;
          break;
        default:
          break;
      }
    }
  }
  return FlightTable(std::move(rows));
}

std::string FlightRecorder::to_perfetto_json() const {
  // Merge all shards chronologically; ties break by (track, shard order),
  // which is deterministic because each shard is already in write order.
  struct Indexed {
    FlightEvent e;
    std::uint64_t seq;  // order within its shard
  };
  std::vector<Indexed> all;
  for (const auto& shard : shards_) {
    std::uint64_t seq = 0;
    for (const FlightEvent& e : shard_events(*shard)) {
      all.push_back(Indexed{e, seq++});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Indexed& a, const Indexed& b) {
                     if (a.e.at != b.e.at) return a.e.at < b.e.at;
                     if (a.e.track != b.e.track) return a.e.track < b.e.track;
                     return a.seq < b.seq;
                   });

  // Count per-trace-id occurrences so the first sighting opens the flow
  // ("s"), the last closes it ("f"), and everything between steps it ("t").
  struct FlowState {
    std::uint64_t id;
    std::uint64_t total = 0;
    std::uint64_t seen = 0;
  };
  std::vector<FlowState> flows;
  auto flow_for = [&flows](std::uint64_t id) -> FlowState& {
    for (auto it = flows.rbegin(); it != flows.rend(); ++it) {
      if (it->id == id) return *it;
    }
    flows.push_back(FlowState{id, 0, 0});
    return flows.back();
  };
  for (const Indexed& ie : all) {
    if (ie.e.trace_id != 0) ++flow_for(ie.e.trace_id).total;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };
  // Track metadata: one named Perfetto thread per component/worker.
  for (std::size_t t = 0; t < shards_.size(); ++t) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(t);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_json_escaped(out, shards_[t]->name);
    out += "\"}}";
  }
  char hexid[32];
  for (const Indexed& ie : all) {
    const FlightEvent& e = ie.e;
    // The lifecycle slice (1 ns so Perfetto renders it).
    comma();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.track);
    out += ",\"ts\":";
    append_us(out, e.at);
    out += ",\"dur\":0.001,\"name\":\"";
    out += flight_stage_name(e.stage);
    out += "\",\"args\":{\"adu\":";
    out += std::to_string(e.trace_id & 0xffffffffull);
    out += ",\"trace_id\":" + std::to_string(e.trace_id);
    out += ",\"bytes\":" + std::to_string(e.arg);
    out += "}}";
    if (e.trace_id == 0) continue;
    // The flow arrow binding this slice into the ADU's journey.
    FlowState& fs = flow_for(e.trace_id);
    ++fs.seen;
    if (fs.total < 2) continue;  // a single sighting draws no arrow
    comma();
    const char* ph = fs.seen == 1 ? "s" : (fs.seen == fs.total ? "f" : "t");
    std::snprintf(hexid, sizeof hexid, "0x%llx",
                  static_cast<unsigned long long>(e.trace_id));
    out += "{\"ph\":\"";
    out += ph;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(e.track);
    out += ",\"ts\":";
    append_us(out, e.at);
    out += ",\"cat\":\"adu\",\"id\":\"";
    out += hexid;
    out += "\",\"name\":\"adu ";
    out += std::to_string(e.trace_id & 0xffffffffull);
    out += '"';
    if (fs.seen == fs.total) out += ",\"bp\":\"e\"";
    out += '}';
  }
  out += "]}";
  return out;
}

void FlightRecorder::register_metrics(MetricsRegistry& reg,
                                      std::string prefix) const {
  reg.add_source(std::move(prefix), [this](MetricSink& sink) {
    const FlightStats st = stats();
    sink.counter("events", st.events_recorded);
    sink.counter("dropped_events", st.events_dropped);
    sink.counter("tracks", st.tracks);
  });
}

void FlightRecorder::clear() {
  for (auto& s : shards_) {
    s->head.store(0, std::memory_order_relaxed);
    s->dropped.store(0, std::memory_order_relaxed);
  }
}

#endif  // NGP_OBS_ENABLED

}  // namespace ngp::obs
