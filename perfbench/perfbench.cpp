// perfbench.cpp — the repository benchmark: three named workloads driven
// through the stack's public calls and timed on the host clock.
//
//   perfbench --workload <bulk_xdr|small_rpc|many_flows> --seed N
//             --seconds S --trace <0|1> [--small] [--corrupt-one]
//
// Every workload is a closed loop from one client. bulk_xdr and small_rpc
// keep a window of W ADUs in flight on one association (stage W with
// AlfSender::send_record, then step the simulator until all W are
// delivered); many_flows feeds pre-encoded frames of 65,536 receive-only
// flows through one sessiond Dispatcher, round-robin, with a quarter of the
// flows churning every round.
//
// --trace 0 measures the end-to-end metrics for S seconds. --trace 1 runs
// four S/4 phases, alternating untraced and traced, and reports the
// per-layer metrics: the benchmark's own timers wrap each public call (a
// timing NetPath around the data path and its handler, a timing Session
// around every many_flows session, and spans around send_record,
// run_until, dispatch and the application's decode), and the traced table
// sums each layer's self time against the wall time.
//
// Every run checks its own output: delivered records are folded into an
// order-independent hash that must equal the hash of the generated inputs,
// and the run exits 1 on any mismatch, leak, drop or stall. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
//
// See README.md beside this file for the metric definitions.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/wire.h"
#include "buf/pool.h"
#include "checksum/checksum.h"
#include "engine/engine.h"
#include "netsim/link.h"
#include "netsim/net_path.h"
#include "obs/metrics.h"
#include "presentation/plan.h"
#include "sessiond/sessiond.h"
#include "util/event_loop.h"
#include "util/rng.h"

namespace ngp::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Clocks and layer timers
// ---------------------------------------------------------------------------

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Heap bytes in use on the main arena (where the control thread allocates
/// every session).
double heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// The layers the benchmark times. Each span records self time: its own
/// duration minus the spans nested inside it.
enum Layer : std::size_t {
  kClient,         // the benchmark's own client: staging, latency, hash check
  kSendRecord,     // AlfSender::send_record
  kLinkSend,       // NetPath::send on the data path
  kEventLoop,      // EventLoop::run_until
  kRxFrame,        // the data path's frame handler / a session's on_frame
  kDecode,         // presentation::plan_decode_host_order in the application
  kFlatten,        // BufChain::flatten in the application
  kDispatch,       // sessiond Dispatcher::dispatch
  kSessionCreate,  // the session factory (create on first frame)
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "bench.client",        "alf.tx.send_record", "netsim.link_send",
    "util.event_loop",     "alf.rx.frame",       "presentation.decode",
    "buf.flatten",         "sessiond.dispatch",  "sessiond.create"};

struct LayerTotal {
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};
using LayerTotals = std::array<LayerTotal, kLayerCount>;

/// Span stack for the control thread. Off (the default) every span is one
/// predictable branch; on, each span costs two steady_clock reads.
class Tracer {
 public:
  bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  void enter(Layer layer) { stack_.push_back({layer, wall_ns(), 0}); }
  void leave() {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t d = wall_ns() - o.start;
    totals_[o.layer].self_ns += d - o.child_ns;
    ++totals_[o.layer].calls;
    if (!stack_.empty()) stack_.back().child_ns += d;
  }
  /// Control-thread time spent blocked (wall minus thread CPU) inside
  /// run_until: the engine harvest waiting for its workers.
  void add_blocked(std::int64_t ns) noexcept { blocked_ns_ += ns; }

  const LayerTotals& totals() const noexcept { return totals_; }
  std::int64_t blocked_ns() const noexcept { return blocked_ns_; }

 private:
  struct Open {
    Layer layer;
    std::int64_t start;
    std::int64_t child_ns;
  };
  bool on_ = false;
  std::vector<Open> stack_;
  LayerTotals totals_{};
  std::int64_t blocked_ns_ = 0;
};

Tracer tracer;

class Span {
 public:
  explicit Span(Layer layer) : active_(tracer.on()) {
    if (active_) tracer.enter(layer);
  }
  ~Span() {
    if (active_) tracer.leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

/// One timed EventLoop::run_until window.
void step_loop(EventLoop& loop, SimDuration dt) {
  if (!tracer.on()) {
    loop.run_until(loop.now() + dt);
    return;
  }
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t wall0 = wall_ns();
  {
    Span s(kEventLoop);
    loop.run_until(loop.now() + dt);
  }
  tracer.add_blocked((wall_ns() - wall0) - (thread_cpu_ns() - cpu0));
}

/// Timing decorator for the data path: sends are netsim.link_send, and the
/// handler the receiver registers is wrapped as alf.rx.frame.
class TimedPath final : public NetPath {
 public:
  explicit TimedPath(NetPath& inner) : inner_(inner) {}

  bool send(ConstBytes frame) override {
    Span s(kLinkSend);
    return inner_.send(frame);
  }
  void set_handler(FrameHandler handler) override {
    inner_.set_handler([h = std::move(handler)](ConstBytes frame) {
      Span s(kRxFrame);
      h(frame);
    });
  }
  std::size_t max_frame_size() const override { return inner_.max_frame_size(); }

 private:
  NetPath& inner_;
};

// ---------------------------------------------------------------------------
// Seeded inputs and the output self-check
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Content hash of one record's ints: four independent multiply lanes, so
/// the check stays a small share of a 16 KiB ADU's cost.
std::uint64_t content_hash(const std::vector<std::int32_t>& v) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t lane[4] = {1, 2, 3, 4};
  const std::size_t n = v.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t w = 0;
      std::memcpy(&w, v.data() + i + 2 * l, sizeof w);
      lane[l] = (lane[l] ^ w) * kMul;
      lane[l] ^= lane[l] >> 32;
    }
  }
  for (; i < n; ++i) {
    lane[0] = (lane[0] ^ static_cast<std::uint32_t>(v[i])) * kMul;
  }
  return mix64(lane[0] ^ mix64(lane[1] ^ mix64(lane[2] ^ mix64(lane[3] ^ n))));
}

/// One delivered ADU's contribution to the order-independent output hash:
/// which flow, which name, which content.
std::uint64_t adu_digest(std::uint64_t flow_key, std::uint64_t name,
                         std::uint64_t content) {
  return mix64(content ^ mix64(name ^ mix64(flow_key + 0x51ED27ull)));
}

RecordSchema int_array_schema() {
  return RecordSchema{"perfbench_ints", {FieldType::kInt32Array}};
}

/// The client's seeded records. ADU name `a` carries record a % size().
struct Inputs {
  std::vector<Record> records;
  std::vector<std::uint64_t> hashes;

  Inputs(std::uint64_t seed, std::size_t count, std::size_t ints) {
    records.reserve(count);
    hashes.reserve(count);
    for (std::size_t r = 0; r < count; ++r) {
      Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (r + 1)));
      std::vector<std::int32_t> v(ints);
      for (auto& x : v) x = static_cast<std::int32_t>(rng.next());
      hashes.push_back(content_hash(v));
      Record rec;
      rec.emplace_back(std::move(v));
      records.push_back(std::move(rec));
    }
  }
  std::size_t index(std::uint64_t name) const { return name % records.size(); }
};

/// The application end of every workload: decodes each delivered ADU,
/// checks it against the generated input, folds it into the output hash and
/// records its hand-off-to-delivery latency.
class Checker {
 public:
  Checker(const Inputs& in, const presentation::PresentationPlan& plan)
      : in_(in), plan_(plan) {}

  /// Test hook (--corrupt-one): the next delivered record reads one bit off,
  /// which the self-check must catch.
  void corrupt_next() noexcept { corrupt_pending_ = true; }

  void expect(std::uint64_t flow_key, std::uint64_t name) {
    expected_fold_ ^= adu_digest(flow_key, name, in_.hashes[in_.index(name)]);
    ++attempted_;
  }

  void deliver_flat(std::uint64_t flow_key, const AduName& name, ConstBytes host_order,
                    std::int64_t handed_off_ns) {
    Result<Record> rec = [&] {
      Span s(kDecode);
      return presentation::plan_decode_host_order(plan_, host_order, &cost_);
    }();
    Span s(kClient);
    ++delivered_;
    bytes_ += host_order.size();
    latency_us_.push_back(static_cast<float>(wall_ns() - handed_off_ns) / 1e3f);
    if (!rec.ok() || rec->empty()) return;
    const auto* ints = std::get_if<std::vector<std::int32_t>>(&(*rec)[0]);
    if (ints == nullptr) return;
    std::uint64_t h = content_hash(*ints);
    if (corrupt_pending_) {
      std::vector<std::int32_t> bad = *ints;
      bad[0] ^= 1;
      h = content_hash(bad);
      corrupt_pending_ = false;
    }
    fold_ ^= adu_digest(flow_key, name.a, h);
    if (h == in_.hashes[in_.index(name.a)]) ++intact_;
  }

  void deliver_chain(std::uint64_t flow_key, AduChain&& c, std::int64_t handed_off_ns) {
    ByteBuffer flat = [&] {
      Span s(kFlatten);
      return c.payload.flatten();
    }();
    cost_.charge_pass(flat.size(), /*stores=*/true);
    c.payload.clear();  // the segments recycle before the decode
    deliver_flat(flow_key, c.name, flat.span(), handed_off_ns);
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t intact() const noexcept { return intact_; }
  std::uint64_t bytes() const noexcept { return bytes_; }
  bool fold_matches() const noexcept { return fold_ == expected_fold_; }
  const obs::CostAccount& cost() const noexcept { return cost_; }
  /// Hand-off-to-delivery latencies since the caller last cleared them.
  std::vector<float>& latencies() noexcept { return latency_us_; }

 private:
  const Inputs& in_;
  const presentation::PresentationPlan& plan_;
  bool corrupt_pending_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t intact_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fold_ = 0;
  std::uint64_t expected_fold_ = 0;
  obs::CostAccount cost_;
  std::vector<float> latency_us_;
};

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

/// Cumulative counters a phase differences (per-layer work and the ledger).
struct Counters {
  std::uint64_t adus = 0;          // ADUs handed off (send_record / first frame)
  std::uint64_t tx_adus = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_recomputed = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_zero_copy = 0;
  std::uint64_t copied_words = 0;  // §4 ledger word stores
  std::uint64_t memory_passes = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t evicted = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.adus = adus - o.adus;
    d.tx_adus = tx_adus - o.tx_adus;
    d.tx_frames = tx_frames - o.tx_frames;
    d.tx_recomputed = tx_recomputed - o.tx_recomputed;
    d.rx_frames = rx_frames - o.rx_frames;
    d.rx_zero_copy = rx_zero_copy - o.rx_zero_copy;
    d.copied_words = copied_words - o.copied_words;
    d.memory_passes = memory_passes - o.memory_passes;
    d.frames_dropped = frames_dropped - o.frames_dropped;
    d.backpressure = backpressure - o.backpressure;
    d.evicted = evicted - o.evicted;
    return d;
  }
  Counters& operator+=(const Counters& o) {
    adus += o.adus;
    tx_adus += o.tx_adus;
    tx_frames += o.tx_frames;
    tx_recomputed += o.tx_recomputed;
    rx_frames += o.rx_frames;
    rx_zero_copy += o.rx_zero_copy;
    copied_words += o.copied_words;
    memory_passes += o.memory_passes;
    frames_dropped += o.frames_dropped;
    backpressure += o.backpressure;
    evicted += o.evicted;
    return *this;
  }
};

void add_receiver(Counters& c, const alf::AlfReceiver& rx) {
  const alf::ReceiverStats& s = rx.stats();
  c.rx_frames += s.fragments_received;
  c.rx_zero_copy += s.fragments_zero_copy;
  c.copied_words += rx.manipulation_cost().word_stores + rx.reassembly_cost().word_stores;
  c.memory_passes +=
      rx.manipulation_cost().memory_passes + rx.reassembly_cost().memory_passes;
}

/// Everything one workload instance owns, from set-up to teardown.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the warm-up pass (part of set-up).
  virtual bool warm_up() = 0;
  /// One unit of closed-loop work: a window, or a group of flows.
  virtual bool advance() = 0;
  /// Steps the simulator until every handed-off ADU is delivered.
  virtual bool drain() = 0;
  virtual Counters counters() = 0;
  virtual Checker& checker() = 0;
  virtual engine::Engine& engine() = 0;
  virtual const buf::BufferPool& pool() const = 0;
  /// Workload-specific correctness conditions beyond the output hash.
  virtual bool healthy(std::string& why) = 0;
  /// Heap bytes per resident session (many_flows only).
  virtual double bytes_per_session() const { return 0; }
  virtual std::uint64_t creates_rejected() { return 0; }
  virtual std::uint64_t frames_unroutable() { return 0; }
};

constexpr SimDuration kHarvestDelay = 200 * kMicrosecond;
constexpr unsigned kEngineWorkers = 2;
constexpr std::size_t kFragPayload = 1500 - alf::DataFragment::kHeaderSize;

std::unique_ptr<engine::Engine> make_engine() {
  engine::EngineConfig ecfg;
  ecfg.workers = kEngineWorkers;
  return std::make_unique<engine::Engine>(ecfg);
}

/// Moves the whole process — control thread and engine workers together —
/// from core to core, half a second on each. All threads share one core:
/// on a virtual machine whose host is busy, a blocking hand-off to a worker
/// on another vCPU waits for the host to reschedule that vCPU
/// (milliseconds), which swamped every figure; on one core the hand-off
/// stays real (ring, condition variable, context switch). And each vCPU's
/// speed drifts on its own with what the host runs beside it, so visiting
/// every core in turn makes each run sample all of them. See README.md,
/// "Threads".
class CoreRotation {
 public:
  CoreRotation() {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cores_.push_back(c);
    }
  }

  /// Puts every thread of the process on the next core in turn; threads
  /// started later inherit it.
  void next() {
    if (cores_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[turn_++ % cores_.size()], &one);
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
      const pid_t tid = static_cast<pid_t>(std::atoi(task.path().filename().c_str()));
      sched_setaffinity(tid, sizeof one, &one);
    }
  }

 private:
  std::vector<int> cores_;
  std::size_t turn_ = 0;
};

CoreRotation cores;

// ---------------------------------------------------------------------------
// bulk_xdr / small_rpc: one association, a window of W ADUs in flight
// ---------------------------------------------------------------------------

struct AssocShape {
  std::size_t ints_per_adu;
  ChecksumKind checksum;
  bool encrypt;
  std::size_t window;       // ADUs in flight (W)
  std::size_t records;      // distinct seeded records the client cycles
  std::size_t warmup_adus;  // ADUs through the stack before timing starts
};

constexpr AssocShape kBulkXdr{4096, ChecksumKind::kInternet, true, 8, 64, 1024};
constexpr AssocShape kSmallRpc{256, ChecksumKind::kCrc32, false, 32, 1024, 8192};

/// Each association carries one receiver id window of ADUs, then the client
/// opens the next on the same link, pool and engine (bounding the sender's
/// per-ADU name book, which no public call trims).
constexpr std::uint64_t kAdusPerAssociation = std::uint64_t{1} << 16;
constexpr SimDuration kAssocStep = kMillisecond;
constexpr int kMaxStepsPerWindow = 10000;

LinkConfig gigabit_link() {
  LinkConfig lc;
  lc.bandwidth_bps = 1e9;
  lc.propagation_delay = kMillisecond;
  lc.queue_limit = 1 << 16;
  return lc;
}

class AssocWorkload final : public Workload {
 public:
  AssocWorkload(const AssocShape& shape, std::uint64_t seed, bool timed)
      : shape_(shape),
        channel_(loop_, gigabit_link()),
        data_link_(channel_.forward),
        feedback_tx_(channel_.reverse),
        feedback_rx_(channel_.reverse),
        timed_data_(data_link_),
        data_(timed ? static_cast<NetPath&>(timed_data_) : data_link_),
        eng_(make_engine()),
        plan_(presentation::cached_plan(int_array_schema(), TransferSyntax::kXdr)),
        inputs_(seed, shape.records, shape.ints_per_adu),
        checker_(inputs_, *plan_),
        handed_off_(shape.window, 0) {
    channel_.forward.set_rx_pool(&pool_);
    cfg_.syntax = TransferSyntax::kXdr;
    cfg_.checksum = shape.checksum;
    cfg_.encrypt = shape.encrypt;
    cfg_.retransmit = alf::RetransmitPolicy::kApplicationRecompute;
    // The client steps bounded run_until windows: heartbeats out of frame,
    // stall watchdog off.
    cfg_.progress_interval = 3600 * kSecond;
    cfg_.stall_timeout = 0;
    Rng key_rng(seed);
    key_rng.fill(MutableBytes{cfg_.key.key.data(), cfg_.key.key.size()});
    key_rng.fill(MutableBytes{cfg_.key.nonce.data(), cfg_.key.nonce.size()});
    open_association();
  }

  ~AssocWorkload() override {
    rx_.reset();  // settles its engine jobs while the engine is alive
    tx_.reset();
  }

  bool warm_up() override {
    while (checker_.attempted() < shape_.warmup_adus) {
      if (!advance()) return false;
    }
    return true;
  }

  bool advance() override {
    if (assoc_adus_ >= kAdusPerAssociation) open_association();
    const std::size_t w = shape_.window;
    for (std::size_t b = 0; b < w; ++b) {
      const std::uint64_t ordinal = next_ordinal_++;
      const Record& record = inputs_.records[inputs_.index(ordinal)];
      {
        Span s(kClient);
        checker_.expect(0, ordinal);
        handed_off_[ordinal % w] = wall_ns();
      }
      Span s(kSendRecord);
      if (!tx_->send_record(generic_name(ordinal), *plan_, record).ok()) ++send_failures_;
    }
    assoc_adus_ += w;
    return drain();
  }

  bool drain() override {
    for (int steps = 0; checker_.delivered() < checker_.attempted(); ++steps) {
      if (steps == kMaxStepsPerWindow) return false;
      step_loop(loop_, kAssocStep);
    }
    return true;
  }

  Counters counters() override {
    Counters c = retired_;
    add_association(c);
    c.adus = checker_.attempted();
    c.memory_passes += checker_.cost().memory_passes;
    const LinkStats& f = channel_.forward.stats();
    const LinkStats& r = channel_.reverse.stats();
    c.frames_dropped = f.dropped_loss + f.dropped_queue + f.dropped_oversize +
                       r.dropped_loss + r.dropped_queue + r.dropped_oversize;
    c.backpressure = eng_->stats().submit_backpressure;
    return c;
  }

  Checker& checker() override { return checker_; }
  engine::Engine& engine() override { return *eng_; }
  const buf::BufferPool& pool() const override { return pool_; }

  bool healthy(std::string& why) override {
    if (send_failures_ != 0) why = "send_record failed";
    return send_failures_ == 0;
  }

 private:
  void add_association(Counters& c) const {
    const alf::SenderStats& s = tx_->stats();
    c.tx_adus += s.adus_sent;
    c.tx_frames += s.fragments_sent;
    c.tx_recomputed += s.adus_recomputed;
    c.copied_words += tx_->manipulation_cost().word_stores;
    c.memory_passes += tx_->manipulation_cost().memory_passes;
    add_receiver(c, *rx_);
  }

  void open_association() {
    if (tx_) add_association(retired_);
    rx_.reset();
    tx_.reset();
    tx_ = std::make_unique<alf::AlfSender>(loop_, data_, feedback_rx_, cfg_);
    rx_ = std::make_unique<alf::AlfReceiver>(loop_, data_, feedback_tx_, cfg_);
    rx_->set_rx_pool(&pool_);
    rx_->set_engine(eng_.get(), kHarvestDelay);
    rx_->set_presentation(plan_);
    const std::size_t w = shape_.window;
    rx_->set_on_adu_chain([this, w](AduChain&& c) {
      const std::int64_t t = handed_off_[c.name.a % w];
      checker_.deliver_chain(0, std::move(c), t);
    });
    rx_->set_on_adu([this, w](Adu&& a) {
      checker_.deliver_flat(0, a.name, a.payload.span(), handed_off_[a.name.a % w]);
    });
    // ALF §5 recovery by the application: the client regenerates the seeded
    // record on a NACK, so the sender keeps no retransmission copy.
    tx_->set_recompute(
        [this](std::uint32_t, const AduName& name) -> std::optional<ByteBuffer> {
          Result<ByteBuffer> wire = presentation::plan_encode(
              *plan_, inputs_.records[inputs_.index(name.a)]);
          if (!wire.ok()) return std::nullopt;
          return std::move(wire).value();
        });
    assoc_adus_ = 0;
  }

  const AssocShape shape_;
  // Declared before the loop and the engine, so destroyed after them: link
  // events and engine completions hold its segments until they are gone.
  buf::BufferPool pool_;
  EventLoop loop_;
  DuplexChannel channel_;
  LinkPath data_link_;
  LinkPath feedback_tx_;
  LinkPath feedback_rx_;
  TimedPath timed_data_;
  NetPath& data_;
  std::unique_ptr<engine::Engine> eng_;
  std::shared_ptr<const presentation::PresentationPlan> plan_;
  Inputs inputs_;
  Checker checker_;
  alf::SessionConfig cfg_;
  std::vector<std::int64_t> handed_off_;  // by ordinal % W
  std::unique_ptr<alf::AlfSender> tx_;
  std::unique_ptr<alf::AlfReceiver> rx_;
  Counters retired_;
  std::uint64_t next_ordinal_ = 0;
  std::uint64_t assoc_adus_ = 0;
  std::uint64_t send_failures_ = 0;
};

// ---------------------------------------------------------------------------
// many_flows: receive-only flows created on first frame through sessiond
// ---------------------------------------------------------------------------

struct FlowsShape {
  std::size_t flows;          // resident flow slots
  std::size_t session_ids;    // distinct session ids; flows beyond share them
                              // under other peer addresses
  std::size_t adus_per_flow;  // a flow's lifetime, in records
  std::size_t ints_per_adu;
  std::size_t group;          // flows interleaved round-robin per group
};

constexpr FlowsShape kManyFlows{65536, 2048, 4, 1024, 4096};
constexpr FlowsShape kManyFlowsSmall{4096, 512, 4, 1024, 1024};

constexpr std::size_t kFramesPerStep = 256;
constexpr SimDuration kFlowStep = 50 * kMicrosecond;
/// Sim-time pause before each round; a flow that took no frame across one
/// pause is idle and the end-of-round sweep evicts it.
constexpr SimDuration kRoundGap = kSecond;
constexpr SimDuration kIdleTimeout = 500 * kMillisecond;
constexpr int kMaxDrainSteps = 200000;

class FlowsWorkload;

/// Timing decorator around every factory-built session: its frames are
/// alf.rx.frame, and its receiver's ledger is folded in before it dies.
class TimedSession final : public sessiond::Session {
 public:
  TimedSession(sessiond::SessionPtr inner, const alf::AlfReceiver& rx,
               FlowsWorkload& owner);
  ~TimedSession() override;
  TimedSession(const TimedSession&) = delete;
  TimedSession& operator=(const TimedSession&) = delete;

  void on_frame(ConstBytes frame) override {
    Span s(kRxFrame);
    inner_->on_frame(frame);
  }
  const alf::AlfReceiver& receiver() const noexcept { return rx_; }

 private:
  sessiond::SessionPtr inner_;
  const alf::AlfReceiver& rx_;
  FlowsWorkload& owner_;
};

class FlowsWorkload final : public Workload {
 public:
  FlowsWorkload(const FlowsShape& shape, std::uint64_t seed, bool timed)
      : shape_(shape),
        peers_per_generation_(shape.flows / shape.session_ids),
        channel_(loop_, LinkConfig{}),
        feedback_(channel_.reverse),
        eng_(make_engine()),
        plan_(presentation::cached_plan(int_array_schema(), TransferSyntax::kXdr)),
        inputs_(seed, shape.session_ids * shape.adus_per_flow, shape.ints_per_adu),
        checker_(inputs_, *plan_),
        handed_off_(shape.flows, 0),
        daemon_(loop_, daemon_config(shape)) {
    encode_frames();

    alf::SessionConfig base;
    base.syntax = TransferSyntax::kXdr;
    base.checksum = ChecksumKind::kInternet;
    base.progress_interval = 3600 * kSecond;
    base.stall_timeout = 0;
    sessiond::ReceiverFactoryOptions fopts;
    fopts.engine = eng_.get();
    fopts.engine_harvest_delay = kHarvestDelay;
    fopts.rx_pool = &pool_;
    fopts.presentation = plan_;
    fopts.configure = [this](const sessiond::FlowId& flow, alf::AlfReceiver& rx) {
      const std::uint64_t key = flow.key();
      const std::size_t slot = slot_of(flow);
      rx.set_on_adu_chain([this, key, slot](AduChain&& c) {
        checker_.deliver_chain(key, std::move(c), handed_off_[slot]);
      });
      rx.set_on_adu([this, key, slot](Adu&& a) {
        checker_.deliver_flat(key, a.name, a.payload.span(), handed_off_[slot]);
      });
      last_configured_ = &rx;
    };
    sessiond::SessionFactory inner =
        sessiond::alf_receiver_factory(loop_, feedback_, base, fopts);
    if (!timed) {
      daemon_.set_factory(std::move(inner));
    } else {
      daemon_.set_factory([this, inner = std::move(inner)](
                              const sessiond::FlowId& flow,
                              ConstBytes first) -> sessiond::SessionPtr {
        sessiond::SessionPtr s = [&] {
          Span span(kSessionCreate);
          return inner(flow, first);
        }();
        if (!s) return nullptr;
        return std::make_unique<TimedSession>(std::move(s), *last_configured_, *this);
      });
    }
    heap_base_ = heap_in_use();
    pool_base_ = static_cast<double>(pool_.stats().bytes_reserved);
  }

  bool warm_up() override {
    // K ramp-up rounds bring every slot live; one more reaches the churn
    // steady state (a quarter created, a quarter evicted per round).
    while (round_ <= shape_.adus_per_flow) {
      if (!advance()) return false;
    }
    if (!drain()) return false;
    const std::size_t resident = daemon_.table().size();
    bytes_per_session_ =
        resident == 0
            ? 0
            : (heap_in_use() - heap_base_ -
               (static_cast<double>(pool_.stats().bytes_reserved) - pool_base_)) /
                  static_cast<double>(resident);
    return true;
  }

  /// One group of flows: each live slot's next record, fragment-major, so
  /// consecutive frames land on different sessions.
  bool advance() override {
    if (group_ == 0) step_loop(loop_, kRoundGap);
    const std::size_t lo = group_ * shape_.group;
    const std::size_t hi = std::min(shape_.flows, lo + shape_.group);
    const std::size_t frags = frames_.front().size();
    for (std::size_t f = 0; f < frags; ++f) {
      for (std::size_t j = lo; j < hi; ++j) {
        const std::size_t start = start_round(j);
        if (round_ < start) continue;
        const std::size_t age = round_ - start;
        const std::size_t k = age % shape_.adus_per_flow;
        const sessiond::FlowId flow = flow_of(j, age / shape_.adus_per_flow);
        const std::size_t rec = (j % shape_.session_ids) * shape_.adus_per_flow + k;
        if (f == 0) {
          Span s(kClient);
          checker_.expect(flow.key(), rec);
          handed_off_[j] = wall_ns();
        }
        {
          Span s(kDispatch);
          daemon_.dispatcher().dispatch(flow.peer, frames_[rec][f].span());
        }
        if (++frames_since_step_ == kFramesPerStep) {
          frames_since_step_ = 0;
          step_loop(loop_, kFlowStep);
        }
      }
    }
    if (++group_ * shape_.group >= shape_.flows) {
      group_ = 0;
      ++round_;
      if (!drain()) return false;
      evicted_ += daemon_.sweep_idle();
    }
    return true;
  }

  bool drain() override {
    for (int steps = 0; checker_.delivered() < checker_.attempted(); ++steps) {
      if (steps == kMaxDrainSteps) return false;
      step_loop(loop_, kFlowStep);
    }
    return true;
  }

  Counters counters() override {
    Counters c = retired_;
    for (const TimedSession* s : live_) add_receiver(c, s->receiver());
    c.adus = checker_.attempted();
    c.memory_passes += checker_.cost().memory_passes;
    c.backpressure = eng_->stats().submit_backpressure;
    c.evicted = evicted_;
    return c;
  }

  Checker& checker() override { return checker_; }
  engine::Engine& engine() override { return *eng_; }
  const buf::BufferPool& pool() const override { return pool_; }

  bool healthy(std::string& why) override {
    if (frames_unroutable() != 0) why = "unroutable frames";
    if (creates_rejected() != 0) why = "session creates rejected";
    return why.empty();
  }
  double bytes_per_session() const override { return bytes_per_session_; }
  std::uint64_t creates_rejected() override {
    return daemon_.dispatcher().stats().creates_rejected;
  }
  std::uint64_t frames_unroutable() override {
    return daemon_.dispatcher().stats().frames_unroutable;
  }

  void track(const TimedSession* s) { live_.insert(s); }
  void retire(const TimedSession* s) {
    live_.erase(s);
    add_receiver(retired_, s->receiver());
  }

 private:
  static sessiond::SessiondConfig daemon_config(const FlowsShape& shape) {
    sessiond::SessiondConfig cfg;
    cfg.table.shards = 64;
    cfg.table.max_sessions = 2 * shape.flows;
    cfg.table.idle_timeout = kIdleTimeout;
    return cfg;
  }

  /// The "remote senders": every (session id, record) encoded once, before
  /// timing, into MTU-sized DATA fragments.
  void encode_frames() {
    frames_.resize(inputs_.records.size());
    for (std::size_t rec = 0; rec < inputs_.records.size(); ++rec) {
      const ByteBuffer wire = presentation::plan_encode(*plan_, inputs_.records[rec]).value();
      alf::DataFragment f;
      f.session = static_cast<std::uint16_t>(1 + rec / shape_.adus_per_flow);
      f.adu_id = static_cast<std::uint32_t>(1 + rec % shape_.adus_per_flow);
      f.name = generic_name(rec);
      f.syntax = TransferSyntax::kXdr;
      f.checksum_kind = ChecksumKind::kInternet;
      f.adu_len = static_cast<std::uint32_t>(wire.size());
      f.adu_checksum = compute_checksum(ChecksumKind::kInternet, wire.span());
      for (std::size_t off = 0; off < wire.size(); off += kFragPayload) {
        f.frag_off = static_cast<std::uint32_t>(off);
        f.payload = wire.subspan(off, std::min(kFragPayload, wire.size() - off));
        frames_[rec].push_back(alf::encode_fragment(f));
      }
    }
  }

  /// Slots start staggered by a round, so once all are live a quarter of
  /// them (with four records per flow) begin a new flow every round.
  std::size_t start_round(std::size_t slot) const {
    const std::size_t k = shape_.adus_per_flow;
    return (k - slot % k) % k;
  }
  sessiond::FlowId flow_of(std::size_t slot, std::size_t generation) const {
    const std::size_t peer =
        1 + slot / shape_.session_ids + peers_per_generation_ * generation;
    return {static_cast<std::uint32_t>(peer),
            static_cast<std::uint16_t>(1 + slot % shape_.session_ids)};
  }
  std::size_t slot_of(const sessiond::FlowId& flow) const {
    return ((flow.peer - 1) % peers_per_generation_) * shape_.session_ids +
           (flow.session_id - 1);
  }

  const FlowsShape shape_;
  const std::size_t peers_per_generation_;
  buf::BufferPool pool_;  // outlives the loop and the engine (see AssocWorkload)
  EventLoop loop_;
  DuplexChannel channel_;
  LinkPath feedback_;
  std::unique_ptr<engine::Engine> eng_;
  std::shared_ptr<const presentation::PresentationPlan> plan_;
  Inputs inputs_;
  Checker checker_;
  std::vector<std::vector<ByteBuffer>> frames_;  // by record
  // What the sessions' callbacks and destructors touch outlives the daemon.
  std::vector<std::int64_t> handed_off_;  // by slot: first frame's dispatch
  std::unordered_set<const TimedSession*> live_;
  Counters retired_;
  const alf::AlfReceiver* last_configured_ = nullptr;
  sessiond::Sessiond daemon_;
  std::size_t round_ = 0;
  std::size_t group_ = 0;
  std::size_t frames_since_step_ = 0;
  std::uint64_t evicted_ = 0;
  double heap_base_ = 0;
  double pool_base_ = 0;
  double bytes_per_session_ = 0;
};

TimedSession::TimedSession(sessiond::SessionPtr inner, const alf::AlfReceiver& rx,
                           FlowsWorkload& owner)
    : inner_(std::move(inner)), rx_(rx), owner_(owner) {
  owner_.track(this);
}

TimedSession::~TimedSession() { owner_.retire(this); }

// ---------------------------------------------------------------------------
// Phases, metrics and output
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool corrupt_one = false;
};

std::unique_ptr<Workload> make_workload(const Options& o, bool timed) {
  if (o.workload == "bulk_xdr") {
    return std::make_unique<AssocWorkload>(kBulkXdr, o.seed, timed);
  }
  if (o.workload == "small_rpc") {
    return std::make_unique<AssocWorkload>(kSmallRpc, o.seed, timed);
  }
  if (o.workload == "many_flows") {
    return std::make_unique<FlowsWorkload>(o.small ? kManyFlowsSmall : kManyFlows,
                                           o.seed, timed);
  }
  return nullptr;
}

double percentile(std::vector<float>& v, double p) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// Half a second of a measured phase. The end-to-end metrics are medians
/// over slices, so a burst of outside load on the host moves a slice, not
/// the result.
struct Slice {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t bytes = 0;
  std::size_t latency_samples = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
};
constexpr double kSliceSeconds = 0.5;

double goodput_mbps(std::uint64_t bytes, double wall_s) {
  return wall_s > 0 ? static_cast<double>(bytes) * 8 / wall_s / 1e6 : 0;
}

/// One measured interval.
struct Phase {
  double wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t intact = 0;
  std::uint64_t bytes = 0;
  std::vector<Slice> slices;
  Counters delta;
  LayerTotals layers{};
  std::int64_t blocked_ns = 0;
  bool completed = true;

  void merge(Phase&& o) {
    wall_s += o.wall_s;
    attempted += o.attempted;
    intact += o.intact;
    bytes += o.bytes;
    delta += o.delta;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      layers[l].self_ns += o.layers[l].self_ns;
      layers[l].calls += o.layers[l].calls;
    }
    blocked_ns += o.blocked_ns;
    completed = completed && o.completed;
  }
};

Phase run_phase(Workload& w, double seconds, bool traced) {
  Checker& ck = w.checker();
  ck.latencies().clear();
  const Counters c0 = w.counters();
  const std::uint64_t att0 = ck.attempted();
  const std::uint64_t int0 = ck.intact();
  const std::uint64_t bytes0 = ck.bytes();
  const LayerTotals layers0 = tracer.totals();
  const std::int64_t blocked0 = tracer.blocked_ns();

  Phase p;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = wall_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const auto slice_ns = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  std::int64_t slice_t0 = t0;
  double slice_cpu0 = cpu0;
  std::uint64_t slice_bytes0 = bytes0;
  const auto cut = [&](std::int64_t now) {
    Slice s;
    const double cpu = process_cpu_s();
    s.wall_s = static_cast<double>(now - slice_t0) / 1e9;
    s.cpu_s = cpu - slice_cpu0;
    s.bytes = ck.bytes() - slice_bytes0;
    std::vector<float>& lat = ck.latencies();
    s.latency_samples = lat.size();
    s.latency_p50_us = percentile(lat, 50);
    s.latency_p99_us = percentile(lat, 99);
    lat.clear();
    p.slices.push_back(std::move(s));
    cores.next();
    slice_t0 = now;
    slice_cpu0 = cpu;
    slice_bytes0 = ck.bytes();
  };
  tracer.set_on(traced);
  for (std::int64_t now = t0; now < deadline;) {
    if (!w.advance()) {
      p.completed = false;
      break;
    }
    now = wall_ns();
    if (now >= slice_t0 + slice_ns && now < deadline) cut(now);
  }
  if (!w.drain()) p.completed = false;
  tracer.set_on(false);
  const std::int64_t t1 = wall_ns();
  cut(t1);  // the last slice takes the final drain
  p.wall_s = static_cast<double>(t1 - t0) / 1e9;

  p.attempted = ck.attempted() - att0;
  p.intact = ck.intact() - int0;
  p.bytes = ck.bytes() - bytes0;
  p.delta = w.counters() - c0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    p.layers[l].self_ns = tracer.totals()[l].self_ns - layers0[l].self_ns;
    p.layers[l].calls = tracer.totals()[l].calls - layers0[l].calls;
  }
  p.blocked_ns = tracer.blocked_ns() - blocked0;
  return p;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + format_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// The traced run's per-layer table: each layer's self time, its share of
/// the wall time, and the unattributed remainder, so the rows add up.
void print_layer_table(const Phase& t) {
  const double wall_ns_total = t.wall_s * 1e9;
  const double adus = static_cast<double>(std::max<std::uint64_t>(1, t.delta.adus));
  std::printf("%-22s %12s %8s %12s %10s\n", "layer", "self_ms", "share", "calls",
              "ns/adu");
  double attributed = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const double ns = static_cast<double>(t.layers[l].self_ns);
    attributed += ns;
    std::printf("%-22s %12.3f %7.2f%% %12llu %10.1f\n", kLayerNames[l], ns / 1e6,
                100 * ratio(ns, wall_ns_total),
                static_cast<unsigned long long>(t.layers[l].calls), ns / adus);
  }
  const double rest = wall_ns_total - attributed;
  std::printf("%-22s %12.3f %7.2f%% %12s %10.1f\n", "unattributed", rest / 1e6,
              100 * ratio(rest, wall_ns_total), "-", rest / adus);
  std::printf("%-22s %12.3f %7.2f%% %12llu %10.1f\n", "wall", wall_ns_total / 1e6, 100.0,
              static_cast<unsigned long long>(t.delta.adus), wall_ns_total / adus);
  std::printf("  of which util.event_loop blocked on the engine: %.1f ns/adu\n",
              static_cast<double>(t.blocked_ns) / adus);
}

std::vector<Metric> layer_metrics(Workload& w, const Phase& t, const Phase& u,
                                  double job_p50_us, std::uint64_t frames_dropped,
                                  std::uint64_t segments_live) {
  const auto self = [&](Layer l) { return static_cast<double>(t.layers[l].self_ns); };
  const auto calls = [&](Layer l) { return static_cast<double>(t.layers[l].calls); };
  const Counters& d = t.delta;
  const double adus = static_cast<double>(d.adus);
  double attributed = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) attributed += self(static_cast<Layer>(l));
  return {
      {"bench.client_ns_per_adu", ratio(self(kClient), adus), "ns/adu"},
      {"alf.tx.send_record_ns_per_adu", ratio(self(kSendRecord), adus), "ns/adu"},
      {"alf.tx.frames_per_adu", ratio(static_cast<double>(d.tx_frames),
                                      static_cast<double>(d.tx_adus)), "count"},
      {"alf.tx.adus_recomputed", static_cast<double>(d.tx_recomputed), "count"},
      {"netsim.link_send_ns_per_frame", ratio(self(kLinkSend), calls(kLinkSend)), "ns/frame"},
      {"netsim.frames_dropped", static_cast<double>(frames_dropped), "count"},
      {"util.event_loop_self_ns_per_adu", ratio(self(kEventLoop), adus), "ns/adu"},
      {"alf.rx.frame_ns_per_frame", ratio(self(kRxFrame), calls(kRxFrame)), "ns/frame"},
      {"alf.rx.zero_copy_frac", ratio(static_cast<double>(d.rx_zero_copy),
                                      static_cast<double>(d.rx_frames)), "frac"},
      {"engine.job_latency_us_p50", job_p50_us, "us"},
      {"engine.submit_backpressure", static_cast<double>(d.backpressure), "count"},
      {"engine.drain_ns", ratio(static_cast<double>(t.blocked_ns), adus), "ns/adu"},
      {"presentation.decode_ns_per_adu", ratio(self(kDecode), adus), "ns/adu"},
      {"buf.flatten_ns_per_adu", ratio(self(kFlatten), adus), "ns/adu"},
      {"buf.segments_live_end", static_cast<double>(segments_live), "count"},
      {"buf.bytes_reserved", static_cast<double>(w.pool().stats().bytes_reserved), "B"},
      {"obs.host_copied_bytes_per_adu", ratio(8.0 * static_cast<double>(d.copied_words), adus),
       "B/adu"},
      {"obs.memory_passes_per_adu", ratio(static_cast<double>(d.memory_passes), adus),
       "count"},
      {"sessiond.dispatch_ns_per_frame", ratio(self(kDispatch), calls(kDispatch)),
       "ns/frame"},
      {"sessiond.create_ns_per_session", ratio(self(kSessionCreate), calls(kSessionCreate)),
       "ns/session"},
      {"sessiond.bytes_per_session", w.bytes_per_session(), "B/session"},
      {"sessiond.evicted", static_cast<double>(d.evicted), "count"},
      {"sessiond.creates_rejected", static_cast<double>(w.creates_rejected()), "count"},
      {"sessiond.frames_unroutable", static_cast<double>(w.frames_unroutable()), "count"},
      {"trace.overhead_frac",
       1.0 - ratio(goodput_mbps(t.bytes, t.wall_s), goodput_mbps(u.bytes, u.wall_s)), "frac"},
      {"trace.unattributed_frac", ratio(t.wall_s * 1e9 - attributed, t.wall_s * 1e9),
       "frac"},
  };
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--corrupt-one") {
      o.corrupt_one = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

/// Why the run's output is wrong, or "" when it is right.
std::string self_check(Workload& w, bool completed, const Counters& end,
                       std::uint64_t segments_live) {
  std::string why;
  if (!w.healthy(why)) return why;
  const Checker& ck = w.checker();
  if (!completed) return "a window stalled before delivery";
  if (ck.delivered() != ck.attempted() || ck.intact() != ck.delivered()) {
    return "delivered ADUs differ from the generated inputs";
  }
  if (!ck.fold_matches()) return "output hash differs from the input hash";
  if (segments_live != 0) return "buffer segments still live at the end";
  if (end.frames_dropped != 0) return "frames dropped on a lossless path";
  if (end.tx_recomputed != 0) return "ADUs recomputed on a lossless path";
  return "";
}

constexpr int kSetups = 3;

int run(const Options& o) {
  // Set-up, several times, each on the next core: build the stack,
  // generate or encode the inputs, and pass the warm-up traffic. The last
  // instance is the one measured.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    cores.next();
    const std::int64_t t0 = wall_ns();
    w = make_workload(o, /*timed=*/o.trace);
    if (!w) {
      std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
      return 2;
    }
    if (!w->warm_up()) {
      std::fprintf(stderr, "warm-up stalled\n");
      return 1;
    }
    setups.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }

  if (o.corrupt_one) w->checker().corrupt_next();
  obs::MetricsRegistry reg;
  w->engine().register_metrics(reg, "engine");
  reg.delta_snapshot();  // mark: the engine histograms count measured jobs only

  Phase measured;  // untraced
  Phase traced;
  if (!o.trace) {
    measured = run_phase(*w, o.seconds, false);
  } else {
    // Interleaved U T U T, so drift over the run hits both sides alike.
    for (int i = 0; i < 4; ++i) {
      Phase p = run_phase(*w, o.seconds / 4, i % 2 == 1);
      (i % 2 == 1 ? traced : measured).merge(std::move(p));
    }
  }
  const obs::Snapshot engine_delta = reg.delta_snapshot();

  const Counters end = w->counters();
  const std::uint64_t segments_live = w->pool().stats().segments_live;
  const std::string why = self_check(*w, measured.completed && traced.completed, end,
                                     segments_live);
  const bool correct = why.empty();
  if (!correct) std::fprintf(stderr, "self-check failed: %s\n", why.c_str());

  const std::uint64_t attempted = measured.attempted + traced.attempted;
  const std::uint64_t intact = measured.intact + traced.intact;
  const std::uint64_t failed = attempted - std::min(attempted, intact);
  const double setup_s = median(setups);

  std::vector<Metric> metrics;
  if (!o.trace) {
    std::vector<double> goodput, cpu, p50, p99;
    std::size_t samples = 0;
    std::size_t fewest = SIZE_MAX;
    for (Slice& s : measured.slices) {
      goodput.push_back(goodput_mbps(s.bytes, s.wall_s));
      cpu.push_back(ratio(s.cpu_s * 1e3, static_cast<double>(s.bytes) / 1e6));
      p50.push_back(s.latency_p50_us);
      p99.push_back(s.latency_p99_us);
      samples += s.latency_samples;
      fewest = std::min(fewest, s.latency_samples);
    }
    metrics = {
        {"goodput_mbps", median(goodput), "Mb/s"},
        {"adu_latency_p50_us", median(p50), "us"},
        {"adu_latency_p99_us", median(p99), "us"},
        {"cpu_ms_per_mb", median(cpu), "ms/MB"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", setup_s, "s"},
    };
    std::printf(
        "workload %s seed %llu: %llu ADUs in %.3f s; medians over %zu slices; "
        "latency samples %zu (fewest in a slice %zu)\n",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        static_cast<unsigned long long>(measured.attempted), measured.wall_s,
        measured.slices.size(), samples, fewest);
    std::printf("adu_fail_frac %s\n",
                format_number(ratio(static_cast<double>(failed),
                                    static_cast<double>(attempted)))
                    .c_str());
  } else {
    double job_p50 = 0;
    if (const obs::Sample* s = engine_delta.find("engine.job_latency_us")) {
      job_p50 = obs::histogram_percentile(*s, 50);
    }
    metrics = layer_metrics(*w, traced, measured, job_p50, end.frames_dropped,
                            segments_live);
    print_layer_table(traced);
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %16s %s\n", m.name.c_str(), format_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::fflush(stdout);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ngp::perfbench

int main(int argc, char** argv) {
  ngp::perfbench::Options o;
  if (!ngp::perfbench::parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <bulk_xdr|small_rpc|many_flows> --seed N "
                 "--seconds S --trace <0|1> [--small] [--corrupt-one]\n");
    return 2;
  }
  return ngp::perfbench::run(o);
}
