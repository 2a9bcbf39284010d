// engine.h — out-of-order parallel ADU manipulation engine.
//
// The paper's §4/§5 argument, acted on: per-ADU manipulation (decrypt,
// integrity verify, presentation decode) dominates protocol cost, while
// control — deciding what to do with a fragment — is cheap. And because
// complete ADUs are named in an application name-space, nothing requires
// them to be processed in order (§5). This engine exploits that license:
//
//   * the CONTROL thread stays on the deterministic EventLoop, validating
//     frames and assembling ADUs;
//   * each complete ADU becomes a ManipulationJob — its reassembly chain
//     plus its fused ILP stage plan (ilp/pipeline.h) — dispatched to a
//     worker pool of real std::threads over per-worker SPSC rings;
//   * jobs are sharded by their id (the receiver's flow-scoped trace id),
//     so two jobs for the same ADU keep FIFO order while distinct ADUs run
//     concurrently and complete in ANY order;
//   * completions post back to the control thread, which drains them at
//     its own pace (poll/drain/wait_all) and delivers by ADU name — never
//     by arrival order, which is exactly why any completion order is valid.
//
// workers = 0 (the default) executes jobs inline at submit() on the calling
// thread — same executor, same §4 cost charges — so a deterministic
// simulation that never asked for parallelism behaves bit-identically.
// EngineConfig::reorder_seed deliberately scrambles completion delivery
// (deterministically), an adversarial schedule for order-independence tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buf/chain.h"
#include "ilp/pipeline.h"
#include "obs/cost.h"
#include "util/sim_clock.h"
#include "util/stats.h"

namespace ngp::obs {
class MetricSink;
class MetricsRegistry;
class FlightRecorder;
}  // namespace ngp::obs

namespace ngp::engine {

struct EngineConfig {
  /// Worker threads. 0 = inline execution at submit() (deterministic).
  unsigned workers = 0;
  /// Non-zero: deterministically shuffle each drained completion batch —
  /// the seeded adversarial-reorder schedule of the engine tests.
  std::uint64_t reorder_seed = 0;
};

/// Optional application-context stage run after the fused plan (only when
/// the ADU proved intact): presentation decode of syntaxes with no word
/// kernel, application consumption, etc. Runs on the WORKER thread — it
/// must only touch the job's own chain and cost ledger.
using AppStage = std::function<void(buf::BufChain& chain, obs::CostAccount& cost)>;

/// Completion callback; always invoked on the draining (control) thread.
/// The chain is the job's own, manipulated in place segment by segment and
/// never flattened; its last release recycles the segments into their
/// pool. `cost` is the job's private §4 ledger — merge it into the session
/// account; the merge is commutative, so ledgers are identical no matter
/// the completion order.
using CompletionFn = std::function<void(bool intact, buf::BufChain&& chain,
                                        const obs::CostAccount& cost)>;

/// One complete ADU plus its manipulation pipeline.
struct ManipulationJob {
  /// Worker-shard key and flight-recorder trace id in one: equal ids share
  /// a worker (FIFO). The receiver uses the flow-scoped trace id
  /// (obs::flight_trace_id), so an engine shared across many sessions
  /// (sessiond) spreads distinct flows over its workers while each flow's
  /// equal-id jobs still share one lane, and begin/end events land on the
  /// right ADU journey. 0 = untraced.
  std::uint64_t id = 0;
  /// The complete ADU, manipulated in place by run_manipulation_chain.
  buf::BufChain chain;
  ManipulationPlan plan;
  AppStage app_stage;  ///< optional, worker context, intact ADUs only
  CompletionFn on_done;
};

struct WorkerStats {
  std::uint64_t jobs = 0;
  std::uint64_t bytes = 0;
};

struct EngineStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;        ///< drained back to control
  std::uint64_t jobs_failed = 0;           ///< completed with intact=false
  std::uint64_t bytes_submitted = 0;
  std::uint64_t inline_executions = 0;     ///< workers=0 submissions
  std::uint64_t completions_reordered = 0; ///< displaced by reorder_seed
  std::uint64_t submit_backpressure = 0;   ///< submits that found a full ring
  std::size_t outstanding_peak = 0;        ///< high-water mark of outstanding()
};

/// Worker-pool execution engine for ManipulationJobs. All public methods
/// belong to ONE control thread; only the job chain, its plan, and its
/// private cost ledger ever cross a thread boundary.
class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  /// Lets queued jobs finish, joins the workers, and discards any still
  /// undrained completions WITHOUT invoking their callbacks. Call
  /// wait_all() first if every completion must be observed.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  unsigned workers() const noexcept { return static_cast<unsigned>(workers_.size()); }
  /// True when jobs run on real threads (completions arrive asynchronously).
  bool parallel() const noexcept { return !workers_.empty(); }

  /// Dispatches one job (inline mode executes it immediately). The
  /// completion is delivered by a later poll()/drain()/wait_all() on the
  /// control thread. A worker is not woken for the job: the next harvest
  /// wakes it, as does a submit that finds its ring full, and a worker's
  /// bounded wait finds it within about a millisecond regardless.
  void submit(ManipulationJob job);

  /// Wakes every worker holding jobs submitted since its last wake, then
  /// delivers every completion that is ready, without blocking.
  std::size_t poll() { return drain_ready(false); }
  /// Like poll(), but if nothing is ready and jobs are outstanding, blocks
  /// until at least one completion arrives.
  std::size_t drain() { return drain_ready(true); }
  /// Blocks until every submitted job has been completed AND delivered.
  void wait_all();

  /// Jobs submitted but not yet delivered to their on_done.
  std::size_t outstanding() const noexcept { return outstanding_; }

  const EngineStats& stats() const noexcept { return stats_; }
  const WorkerStats& worker_stats(unsigned idx) const { return worker_stats_.at(idx); }

  /// Writes engine counters, per-worker jobs/bytes, and the queue-depth and
  /// job-latency histograms into one snapshot source.
  void emit_metrics(obs::MetricSink& sink) const;
  /// Same as `reg.add(prefix, engine)`, which perfbench spells this way.
  /// Returns the source id.
  std::size_t register_metrics(obs::MetricsRegistry& reg, std::string prefix) const;
  /// Attaches the per-ADU flight recorder: an "engine" control track
  /// (submit / harvest) plus one "engine.worker<i>" track per worker
  /// (begin / end, stamped with the job's submit-time sim clock — workers
  /// cannot read the sim clock, and each worker track has exactly one
  /// writer). Call before traffic flows; null detaches.
  void set_flight(obs::FlightRecorder* flight);

 private:
  struct Task;
  struct Worker;
  struct Completion;

  Completion execute_job(unsigned worker, SimTime submitted_at, ManipulationJob&& job);
  void worker_loop(unsigned idx);
  std::size_t drain_ready(bool block);
  /// Notifies one worker of the jobs it holds unsignalled.
  void wake(Worker& w);
  /// The harvest's wake: every worker holding unsignalled jobs, once.
  void wake_unsignalled();

  EngineConfig cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Flight recorder wiring (see set_flight). worker_tracks_[i] is written
  // only by worker i (or by control, for the inline worker 0).
  obs::FlightRecorder* flight_ = nullptr;
  std::uint16_t flight_ctl_track_ = 0;
  std::vector<std::uint16_t> flight_worker_tracks_;

  // Control-thread state (never touched by workers).
  std::size_t outstanding_ = 0;
  std::uint64_t reorder_draws_ = 0;
  EngineStats stats_;
  std::vector<WorkerStats> worker_stats_;
  Histogram queue_depth_;     ///< ring occupancy sampled at each submit
  /// Host wall time of each job's manipulation (the run_manipulation_chain
  /// call plus any app stage) on its worker — not queueing, not harvest. 1 us
  /// buckets over 0-200 us; slower jobs land in the overflow count.
  Histogram job_latency_us_;

  // Completion channel (workers produce, control consumes).
  struct DoneQueue;
  std::unique_ptr<DoneQueue> done_;
  /// Control thread only: the harvest vector's capacity between harvests.
  std::vector<Completion> spare_;
};

}  // namespace ngp::engine
