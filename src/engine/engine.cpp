#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace ngp::engine {

namespace {

/// Jobs a lane holds before submit() wakes its worker and waits for room.
constexpr std::size_t kLaneCapacity = 1024;

}  // namespace

struct Engine::Task {
  SimTime submitted_at = 0;  ///< sim clock at submit (workers can't read it)
  ManipulationJob job;
};

struct Engine::Completion {
  unsigned worker = 0;
  bool intact = false;
  std::size_t bytes = 0;        ///< plan input size (pre app-stage)
  std::uint64_t latency_ns = 0;
  std::uint64_t id = 0;
  buf::BufChain chain;
  obs::CostAccount cost;
  CompletionFn on_done;
};

/// One worker's lane: the jobs submitted to it and not yet claimed, plus
/// the sleep/wake machinery of its thread. A lane is claimed whole, by its
/// worker or by the control thread in drain(), and the claimer runs every
/// job it took in submit order, so only one thread runs a lane at a time.
struct Engine::Worker {
  std::mutex m;
  std::condition_variable cv;
  std::vector<Task> jobs;  ///< guarded by m
  /// Guarded by m: the worker is running a batch it took from `jobs`.
  /// drain() leaves such a lane alone, so jobs submitted meanwhile wait
  /// for the worker, which looks again before it sleeps.
  bool claimed = false;
  bool stop = false;  ///< guarded by m
  /// Control thread only: jobs were pushed since this worker's last wake.
  /// submit() leaves them unsignalled; poll() wakes the worker once for
  /// all of them.
  bool unsignalled = false;
  std::thread thread;
};

/// MPSC completion channel: any lane's claimer produces, only the control
/// thread consumes. A claimer publishes its whole batch under one lock
/// with one notify.
struct Engine::DoneQueue {
  std::mutex m;
  std::condition_variable cv;
  std::vector<Completion> ready;
};

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      worker_stats_(cfg.workers > 0 ? cfg.workers : 1),
      queue_depth_(0.0, 64.0, 16),
      job_latency_us_(0.0, 200.0, 2000),
      done_(std::make_unique<DoneQueue>()) {
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

Engine::~Engine() {
  // A stopping worker still runs every job in its lane before it exits
  // (their chains and callbacks may anchor caller state).
  for (auto& w : workers_) {
    {
      std::lock_guard lk(w->m);
      w->stop = true;
    }
    w->cv.notify_one();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

Engine::Completion Engine::execute_job(unsigned worker, SimTime submitted_at,
                                       ManipulationJob&& job) {
  Completion c;
  c.worker = worker;
  c.bytes = job.chain.size();
  c.id = job.id;
  c.on_done = std::move(job.on_done);

  // Lane flight events carry the submit-time sim clock: a worker thread
  // cannot touch the (control-thread) clock source, and sim time does not
  // advance while real threads compute anyway.
  const bool fly = obs::kEnabled && flight_ != nullptr &&
                   worker < flight_worker_tracks_.size();
  if (fly) {
    flight_->record_at(flight_worker_tracks_[worker], submitted_at,
                       obs::FlightStage::kWorkerBegin, job.id, c.bytes);
  }
  const auto t0 = std::chrono::steady_clock::now();
  c.intact = run_manipulation_chain(job.plan, job.chain, &c.cost);
  if (c.intact && job.app_stage) job.app_stage(job.chain, c.cost);
  const auto t1 = std::chrono::steady_clock::now();
  c.latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  // arg is the byte count, NOT latency_ns: flight events must stay
  // deterministic (sim-time and sizes only) so exports are reproducible.
  if (fly) {
    flight_->record_at(flight_worker_tracks_[worker], submitted_at,
                       obs::FlightStage::kWorkerEnd, job.id, c.bytes);
  }
  c.chain = std::move(job.chain);
  return c;
}

void Engine::run_claimed(unsigned lane, std::vector<Task>& batch,
                         std::vector<Completion>& done) {
  for (Task& t : batch) {
    done.push_back(execute_job(lane, t.submitted_at, std::move(t.job)));
  }
  batch.clear();
  {
    std::lock_guard lk(done_->m);
    for (auto& c : done) done_->ready.push_back(std::move(c));
  }
  done_->cv.notify_one();
  done.clear();
}

void Engine::wake(Worker& w) {
  w.unsignalled = false;
  // Jobs are pushed under the worker's mutex, which it holds from its
  // empty-lane check until it waits, so this notify is never lost.
  w.cv.notify_one();
}

void Engine::worker_loop(unsigned idx) {
  Worker& w = *workers_[idx];
  // Both keep their capacity from claim to claim.
  std::vector<Task> batch;
  std::vector<Completion> done;
  std::unique_lock lk(w.m);
  for (;;) {
    if (!w.jobs.empty()) {
      w.claimed = true;
      batch.swap(w.jobs);
      lk.unlock();
      run_claimed(idx, batch, done);
      lk.lock();
      w.claimed = false;
      continue;
    }
    if (w.stop) return;
    // Bounded wait: a lane nobody drains is still claimed within a tick.
    w.cv.wait_for(lk, std::chrono::milliseconds(1));
  }
}

void Engine::submit(ManipulationJob job) {
  const std::size_t job_bytes = job.chain.size();
  ++stats_.jobs_submitted;
  stats_.bytes_submitted += job_bytes;
  ++outstanding_;
  stats_.outstanding_peak = std::max(stats_.outstanding_peak, outstanding_);

  SimTime submitted_at = 0;
  if (obs::kEnabled && flight_ != nullptr) {
    submitted_at = flight_->now();
    flight_->record_at(flight_ctl_track_, submitted_at,
                       obs::FlightStage::kEngineSubmit, job.id, job_bytes);
  }

  if (workers_.empty()) {
    // Inline: the completion waits for the harvest like a worker's. The
    // only thread that could wait for it is this one, so no notify.
    ++stats_.inline_executions;
    Completion c = execute_job(0, submitted_at, std::move(job));
    std::lock_guard lk(done_->m);
    done_->ready.push_back(std::move(c));
    return;
  }

  Worker& w = *workers_[job.id % workers_.size()];
  std::unique_lock lk(w.m);
  queue_depth_.add(static_cast<double>(w.jobs.size()));
  if (w.jobs.size() >= kLaneCapacity) {
    // Lane full: wake the worker (its jobs were left unsignalled) and
    // yield until it claims them. Rare: control is outrunning the pool by
    // a whole lane.
    ++stats_.submit_backpressure;
    wake(w);
    do {
      lk.unlock();
      std::this_thread::yield();
      lk.lock();
    } while (w.jobs.size() >= kLaneCapacity);
  }
  w.jobs.push_back(Task{submitted_at, std::move(job)});
  // No notify: a wake per job would let the worker preempt the control
  // thread once per ADU on a shared core. drain() runs the lane here, or
  // poll() wakes the worker.
  w.unsignalled = true;
}

void Engine::run_unclaimed() {
  for (unsigned i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    // Only this thread appends to a lane, so no job can join the batch
    // while it runs here: taking the list is the claim. A claimed lane's
    // worker picks up what was submitted since before it sleeps.
    w.unsignalled = false;
    {
      std::lock_guard lk(w.m);
      if (w.claimed || w.jobs.empty()) continue;
      ctl_batch_.swap(w.jobs);
    }
    stats_.inline_executions += ctl_batch_.size();
    run_claimed(i, ctl_batch_, ctl_done_);
  }
}

std::size_t Engine::drain_ready(bool block) {
  if (block) {
    run_unclaimed();
  } else {
    for (auto& w : workers_) {
      if (w->unsignalled) wake(*w);
    }
  }
  // The batch takes the spare vector's capacity and the completion queue
  // takes the batch's, so the two buffers alternate and a harvest
  // allocates nothing once both have grown. A callback that re-enters
  // drain_ready finds the spare empty and simply allocates its own.
  std::vector<Completion> batch;
  batch.swap(spare_);
  {
    std::unique_lock lk(done_->m);
    // Nothing ready after run_unclaimed: every outstanding job is in a
    // lane a worker is running, and that worker publishes before it
    // releases the lane.
    if (block && done_->ready.empty() && outstanding_ > 0) {
      done_->cv.wait(lk, [&] { return !done_->ready.empty(); });
    }
    batch.swap(done_->ready);
  }
  if (batch.empty()) {
    spare_.swap(batch);
    return 0;
  }

  if (cfg_.reorder_seed != 0 && batch.size() > 1) {
    // Seeded Fisher-Yates per batch: an adversarial but reproducible
    // completion schedule (the draw counter keeps batches independent).
    Rng rng(cfg_.reorder_seed ^ (0x9E3779B97F4A7C15ull * ++reorder_draws_));
    for (std::size_t i = batch.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform(i + 1));
      if (j != i) {
        std::swap(batch[i], batch[j]);
        ++stats_.completions_reordered;
      }
    }
  }

  for (auto& c : batch) {
    --outstanding_;
    ++stats_.jobs_completed;
    if (!c.intact) ++stats_.jobs_failed;
    WorkerStats& ws = worker_stats_[c.worker];
    ++ws.jobs;
    ws.bytes += c.bytes;
    job_latency_us_.add(static_cast<double>(c.latency_ns) / 1e3);
    if (obs::kEnabled && flight_ != nullptr) {
      flight_->record(flight_ctl_track_, obs::FlightStage::kHarvest,
                      c.id, c.bytes);
    }
    if (c.on_done) c.on_done(c.intact, std::move(c.chain), c.cost);
  }
  const std::size_t n = batch.size();
  batch.clear();
  spare_.swap(batch);
  return n;
}

void Engine::wait_all() {
  while (outstanding_ > 0) drain_ready(true);
}

void Engine::emit_metrics(obs::MetricSink& sink) const {
  sink.counter("workers", workers_.size());
  sink.counter("jobs_submitted", stats_.jobs_submitted);
  sink.counter("jobs_completed", stats_.jobs_completed);
  sink.counter("jobs_failed", stats_.jobs_failed);
  sink.counter("bytes_submitted", stats_.bytes_submitted);
  sink.counter("inline_executions", stats_.inline_executions);
  sink.counter("completions_reordered", stats_.completions_reordered);
  sink.counter("submit_backpressure", stats_.submit_backpressure);
  sink.gauge("outstanding", static_cast<double>(outstanding_));
  sink.counter("outstanding_peak", stats_.outstanding_peak);
  sink.histogram("queue_depth", queue_depth_);
  sink.histogram("job_latency_us", job_latency_us_);
  for (std::size_t i = 0; i < worker_stats_.size(); ++i) {
    obs::PrefixedSink ws(sink, "worker" + std::to_string(i) + ".");
    ws.counter("jobs", worker_stats_[i].jobs);
    ws.counter("bytes", worker_stats_[i].bytes);
  }
}

std::size_t Engine::register_metrics(obs::MetricsRegistry& reg,
                                     std::string prefix) const {
  return reg.add(std::move(prefix), *this);
}

void Engine::set_flight(obs::FlightRecorder* flight) {
  flight_ = flight;
  flight_worker_tracks_.clear();
  if (flight_ == nullptr) return;
  flight_ctl_track_ = flight_->add_track("engine");
  const std::size_t lanes = workers_.empty() ? 1 : workers_.size();
  flight_worker_tracks_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    flight_worker_tracks_.push_back(
        flight_->add_track("engine.worker" + std::to_string(i)));
  }
}

}  // namespace ngp::engine
