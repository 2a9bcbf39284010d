#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "obs/cost.h"

namespace ngp::obs {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
}

void emit_cost(MetricSink& sink, std::string_view name, const CostAccount& c) {
  const std::string base(name);
  sink.counter(base + ".operations", c.operations);
  sink.counter(base + ".bytes_touched", c.bytes_touched);
  sink.counter(base + ".words_touched", c.words_touched);
  sink.counter(base + ".memory_passes", c.memory_passes);
  sink.counter(base + ".word_loads", c.word_loads);
  sink.counter(base + ".word_stores", c.word_stores);
  sink.gauge(base + ".passes_per_operation", c.passes_per_operation());
  sink.gauge(base + ".loads_per_word", c.loads_per_word());
  sink.gauge(base + ".stores_per_word", c.stores_per_word());
}

namespace {

/// MetricSink that materialises samples with the source's prefix applied.
class CollectingSink final : public MetricSink {
 public:
  CollectingSink(std::vector<Sample>& out, const std::string& prefix)
      : out_(out), prefix_(prefix) {}

  void counter(std::string_view name, std::uint64_t value) override {
    Sample s;
    s.name = full_name(name);
    s.kind = Sample::Kind::kCounter;
    s.count = value;
    out_.push_back(std::move(s));
  }

  void gauge(std::string_view name, double value) override {
    Sample s;
    s.name = full_name(name);
    s.kind = Sample::Kind::kGauge;
    s.value = value;
    out_.push_back(std::move(s));
  }

  void histogram(std::string_view name, const Histogram& h) override {
    Sample s;
    s.name = full_name(name);
    s.kind = Sample::Kind::kHistogram;
    s.buckets.reserve(h.bucket_count());
    for (std::size_t i = 0; i < h.bucket_count(); ++i) s.buckets.push_back(h.bucket(i));
    s.lo = h.lo();
    s.hi = h.hi();
    s.underflow = h.underflow();
    s.overflow = h.overflow();
    s.count = h.total();
    out_.push_back(std::move(s));
  }

 private:
  std::string full_name(std::string_view name) const {
    if (prefix_.empty()) return std::string(name);
    std::string full = prefix_;
    full += '.';
    full += name;
    return full;
  }

  std::vector<Sample>& out_;
  const std::string& prefix_;
};

}  // namespace

double histogram_percentile(const Sample& s, double p) {
  if (s.kind != Sample::Kind::kHistogram || s.count == 0) return 0.0;
  if (!(p >= 0.0)) p = 0.0;  // negative AND NaN clamp to the minimum
  if (p > 100.0) p = 100.0;
  // Continuous rank in [0, count]: the amount of sample mass that lies at
  // or below the reported value. Linear interpolation inside the bucket
  // that holds the rank; p=0 lands on the lower edge of the lowest
  // occupied region, p=100 on the upper edge of the highest occupied
  // bucket (the histogram's `hi` only when overflow mass exists).
  const double rank = p / 100.0 * static_cast<double>(s.count);
  double cum = static_cast<double>(s.underflow);
  if (s.underflow > 0 && rank <= cum) return s.lo;
  const double width =
      s.buckets.empty() ? 0.0
                        : (s.hi - s.lo) / static_cast<double>(s.buckets.size());
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    const double b = static_cast<double>(s.buckets[i]);
    if (b > 0.0) {
      // p=0 with no underflow mass: the lowest occupied bucket's lower edge.
      if (rank <= cum) return s.lo + width * static_cast<double>(i);
      if (rank <= cum + b) {
        const double frac = (rank - cum) / b;
        return s.lo + width * (static_cast<double>(i) + frac);
      }
    }
    cum += b;
  }
  return s.hi;  // remaining mass lies in the overflow region
}

Snapshot::Snapshot(std::vector<Sample> samples) : samples_(std::move(samples)) {
  std::stable_sort(samples_.begin(), samples_.end(),
                   [](const Sample& a, const Sample& b) { return a.name < b.name; });
}

const Sample* Snapshot::find(std::string_view name) const noexcept {
  for (const Sample& s : samples_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t Snapshot::counter_or(std::string_view name, std::uint64_t fallback) const {
  const Sample* s = find(name);
  return (s != nullptr && s->kind == Sample::Kind::kCounter) ? s->count : fallback;
}

double Snapshot::gauge_or(std::string_view name, double fallback) const {
  const Sample* s = find(name);
  return (s != nullptr && s->kind == Sample::Kind::kGauge) ? s->value : fallback;
}

std::string Snapshot::to_text() const {
  std::size_t width = 0;
  for (const Sample& s : samples_) width = std::max(width, s.name.size());
  std::string out;
  for (const Sample& s : samples_) {
    out += s.name;
    out.append(width - s.name.size() + 2, ' ');
    switch (s.kind) {
      case Sample::Kind::kCounter:
        out += std::to_string(s.count);
        break;
      case Sample::Kind::kGauge:
        out += format_double(s.value);
        break;
      case Sample::Kind::kHistogram: {
        out += "hist(n=" + std::to_string(s.count);
        out += ", buckets=[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i > 0) out += ' ';
          out += std::to_string(s.buckets[i]);
        }
        out += "], p50=" + format_double(histogram_percentile(s, 50));
        out += ", p95=" + format_double(histogram_percentile(s, 95));
        out += ", p99=" + format_double(histogram_percentile(s, 99));
        out += ')';
        break;
      }
    }
    out += '\n';
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"type\":\"";
    switch (s.kind) {
      case Sample::Kind::kCounter:
        out += "counter\",\"value\":" + std::to_string(s.count);
        break;
      case Sample::Kind::kGauge:
        out += "gauge\",\"value\":" + format_double(s.value);
        break;
      case Sample::Kind::kHistogram:
        out += "histogram\",\"total\":" + std::to_string(s.count);
        out += ",\"underflow\":" + std::to_string(s.underflow);
        out += ",\"overflow\":" + std::to_string(s.overflow);
        out += ",\"p50\":" + format_double(histogram_percentile(s, 50));
        out += ",\"p95\":" + format_double(histogram_percentile(s, 95));
        out += ",\"p99\":" + format_double(histogram_percentile(s, 99));
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i > 0) out += ',';
          out += std::to_string(s.buckets[i]);
        }
        out += ']';
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::size_t MetricsRegistry::add_source(std::string prefix, SourceFn fn) {
  const std::size_t id = next_id_++;
  sources_.push_back(Source{id, std::move(prefix), std::move(fn)});
  return id;
}

void MetricsRegistry::remove_source(std::size_t id) {
  std::erase_if(sources_, [id](const Source& s) { return s.id == id; });
}

Snapshot MetricsRegistry::snapshot() const {
  std::vector<Sample> samples;
  for (const Source& src : sources_) {
    CollectingSink sink(samples, src.prefix);
    src.fn(sink);
  }
  return Snapshot(std::move(samples));
}

Snapshot MetricsRegistry::delta_snapshot(Snapshot* absolute_out) {
  ++delta_seq_;
  Snapshot abs = snapshot();
  const auto sat_sub = [](std::uint64_t cur, std::uint64_t prev) {
    return cur >= prev ? cur - prev : 0;
  };
  std::vector<Sample> delta;
  delta.reserve(abs.samples().size());
  for (const Sample& cur : abs.samples()) {
    Sample d = cur;
    const auto it = mark_.find(cur.name);
    if (it != mark_.end() && it->second.kind == cur.kind) {
      const Sample& prev = it->second;
      switch (cur.kind) {
        case Sample::Kind::kCounter:
          d.count = sat_sub(cur.count, prev.count);
          break;
        case Sample::Kind::kHistogram:
          d.count = sat_sub(cur.count, prev.count);
          d.underflow = sat_sub(cur.underflow, prev.underflow);
          d.overflow = sat_sub(cur.overflow, prev.overflow);
          if (prev.buckets.size() == cur.buckets.size()) {
            for (std::size_t i = 0; i < d.buckets.size(); ++i) {
              d.buckets[i] = sat_sub(cur.buckets[i], prev.buckets[i]);
            }
          }
          break;
        case Sample::Kind::kGauge:
          break;  // gauges are instantaneous: pass through
      }
    }
    delta.push_back(std::move(d));
  }
  mark_.clear();
  for (const Sample& cur : abs.samples()) mark_.emplace(cur.name, cur);
  if (absolute_out != nullptr) *absolute_out = std::move(abs);
  return Snapshot(std::move(delta));
}

}  // namespace ngp::obs
