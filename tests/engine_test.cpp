// engine_test.cpp — the out-of-order parallel manipulation engine
// (src/engine): inline/parallel parity, sharding, lane claims, adversarial
// completion schedules, metrics, and the end-to-end property the design
// rests on — sink bytes and §4 cost ledgers are invariant across execution
// schedules.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "alf/file_sink.h"
#include "alf/receiver.h"
#include "alf/sender.h"
#include "buf/pool.h"
#include "checksum/checksum.h"
#include "crypto/chacha20.h"
#include "engine/engine.h"
#include "netsim/net_path.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"
#include "util/rng.h"

#include "test_paths.h"

namespace ngp::engine {
namespace {

ChaChaKey test_key() {
  ChaChaKey k{};
  for (std::size_t i = 0; i < k.key.size(); ++i) {
    k.key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  return k;
}

/// An encrypted wire buffer plus the plan that restores (and verifies) it.
struct MadeJob {
  ByteBuffer wire;
  ByteBuffer plain;
  ManipulationPlan plan;
};

MadeJob make_encrypted(std::uint32_t adu_id, std::size_t n, std::uint64_t seed) {
  MadeJob m;
  m.plain.resize(n);
  Rng rng(seed);
  rng.fill(m.plain.span());
  m.plan.decrypt = true;
  m.plan.key = test_key();
  store_u32_be(m.plan.key.nonce.data() + 8, adu_id);
  m.plan.checksum_kind = ChecksumKind::kInternet;
  m.plan.expected_checksum =
      compute_checksum(ChecksumKind::kInternet, m.plain.span());
  m.wire = m.plain;
  chacha20_xor(m.plan.key, 0, m.wire.span());
  return m;
}

/// The wire bytes as a one-segment chain from the default pool.
ManipulationJob to_job(std::uint32_t adu_id, const MadeJob& m, CompletionFn done) {
  ManipulationJob j;
  j.id = adu_id;
  buf::Slice seg{buf::default_pool().alloc(m.wire.size()), 0, m.wire.size()};
  std::memcpy(seg.mutable_bytes().data(), m.wire.data(), m.wire.size());
  j.chain.append(std::move(seg));
  j.plan = m.plan;
  j.on_done = std::move(done);
  return j;
}

void expect_costs_equal(const obs::CostAccount& a, const obs::CostAccount& b) {
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_EQ(a.bytes_touched, b.bytes_touched);
  EXPECT_EQ(a.words_touched, b.words_touched);
  EXPECT_EQ(a.memory_passes, b.memory_passes);
  EXPECT_EQ(a.word_loads, b.word_loads);
  EXPECT_EQ(a.word_stores, b.word_stores);
}

// ---- Engine, inline mode ---------------------------------------------------------

TEST(EngineInline, DecryptsVerifiesAndDeliversAtPoll) {
  Engine eng;  // workers = 0
  EXPECT_FALSE(eng.parallel());

  MadeJob m = make_encrypted(1, 5000, 42);
  const ByteBuffer expected = m.plain;
  bool done = false;
  eng.submit(to_job(1, m, [&](bool intact, buf::BufChain&& chain,
                              const obs::CostAccount& cost) {
    EXPECT_TRUE(intact);
    EXPECT_EQ(chain.flatten(), expected);
    EXPECT_GT(cost.memory_passes, 0u);
    done = true;
  }));

  // Inline mode still defers DELIVERY to the control-side drain: submit
  // executes the work, poll hands the result over.
  EXPECT_EQ(eng.outstanding(), 1u);
  EXPECT_FALSE(done);
  EXPECT_EQ(eng.poll(), 1u);
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.outstanding(), 0u);
  EXPECT_EQ(eng.stats().inline_executions, 1u);
  EXPECT_EQ(eng.stats().jobs_completed, 1u);
  EXPECT_EQ(eng.stats().jobs_failed, 0u);
}

TEST(EngineInline, CorruptPayloadReportsNotIntact) {
  Engine eng;
  MadeJob m = make_encrypted(2, 1000, 7);
  m.wire.data()[100] ^= 0x01;  // damage one wire byte
  bool saw = false;
  eng.submit(to_job(2, m, [&](bool intact, buf::BufChain&&, const obs::CostAccount&) {
    EXPECT_FALSE(intact);
    saw = true;
  }));
  eng.drain();
  EXPECT_TRUE(saw);
  EXPECT_EQ(eng.stats().jobs_failed, 1u);
}

TEST(EngineInline, AppStageRunsOnlyWhenIntact) {
  Engine eng;
  MadeJob good = make_encrypted(1, 256, 3);
  MadeJob bad = make_encrypted(2, 256, 4);
  bad.wire.data()[0] ^= 0xFF;
  int stage_runs = 0;
  const auto stage = [&stage_runs](buf::BufChain& chain, obs::CostAccount& cost) {
    ++stage_runs;
    cost.charge_pass(chain.size(), /*stores=*/false);
  };
  const auto ignore = [](bool, buf::BufChain&&, const obs::CostAccount&) {};
  ManipulationJob j1 = to_job(1, good, ignore);
  j1.app_stage = stage;
  ManipulationJob j2 = to_job(2, bad, ignore);
  j2.app_stage = stage;
  eng.submit(std::move(j1));
  eng.submit(std::move(j2));
  eng.wait_all();
  EXPECT_EQ(stage_runs, 1);  // the damaged ADU never reaches the app stage
}

// ---- Engine, worker pool ---------------------------------------------------------

TEST(EngineParallel, FourWorkersMatchInlineByteForByte) {
  constexpr int kJobs = 64;
  // Reference run: inline.
  std::map<std::uint32_t, ByteBuffer> ref;
  obs::CostAccount ref_cost;
  {
    Engine eng;
    for (int i = 1; i <= kJobs; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      MadeJob m = make_encrypted(id, 512 + i * 13, 100 + i);
      eng.submit(to_job(id, m, [&, id](bool intact, buf::BufChain&& chain,
                                       const obs::CostAccount& cost) {
        ASSERT_TRUE(intact);
        ref.emplace(id, chain.flatten());
        ref_cost.merge(cost);
      }));
    }
    eng.wait_all();
  }
  // Same jobs, four real threads.
  std::map<std::uint32_t, ByteBuffer> par;
  obs::CostAccount par_cost;
  {
    Engine eng(EngineConfig{.workers = 4});
    EXPECT_TRUE(eng.parallel());
    EXPECT_EQ(eng.workers(), 4u);
    for (int i = 1; i <= kJobs; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      MadeJob m = make_encrypted(id, 512 + i * 13, 100 + i);
      eng.submit(to_job(id, m, [&, id](bool intact, buf::BufChain&& chain,
                                       const obs::CostAccount& cost) {
        ASSERT_TRUE(intact);
        par.emplace(id, chain.flatten());
        par_cost.merge(cost);
      }));
    }
    eng.wait_all();
    EXPECT_EQ(eng.stats().jobs_completed, static_cast<std::uint64_t>(kJobs));
  }
  ASSERT_EQ(ref.size(), par.size());
  for (const auto& [id, payload] : ref) {
    ASSERT_TRUE(par.contains(id)) << "ADU " << id;
    EXPECT_EQ(par.at(id), payload) << "ADU " << id;
  }
  expect_costs_equal(ref_cost, par_cost);
}

TEST(EngineParallel, EqualAduIdsShareOneWorker) {
  Engine eng(EngineConfig{.workers = 4});
  constexpr int kJobs = 12;
  for (int i = 0; i < kJobs; ++i) {
    MadeJob m = make_encrypted(5, 2048, 900 + i);
    eng.submit(to_job(5, m, [](bool, buf::BufChain&&, const obs::CostAccount&) {}));
  }
  eng.wait_all();
  int workers_used = 0;
  for (unsigned w = 0; w < eng.workers(); ++w) {
    if (eng.worker_stats(w).jobs > 0) ++workers_used;
  }
  EXPECT_EQ(workers_used, 1);  // shard key = job id: same id, same lane
}

TEST(EngineParallel, DistinctIdsSpreadAcrossWorkers) {
  Engine eng(EngineConfig{.workers = 4});
  for (std::uint32_t id = 1; id <= 32; ++id) {
    MadeJob m = make_encrypted(id, 1024, id);
    eng.submit(to_job(id, m, [](bool, buf::BufChain&&, const obs::CostAccount&) {}));
  }
  eng.wait_all();
  int workers_used = 0;
  std::uint64_t total_jobs = 0;
  for (unsigned w = 0; w < eng.workers(); ++w) {
    if (eng.worker_stats(w).jobs > 0) ++workers_used;
    total_jobs += eng.worker_stats(w).jobs;
  }
  EXPECT_EQ(workers_used, 4);
  EXPECT_EQ(total_jobs, 32u);
}

// ---- Wake policy: submit never notifies; poll wakes, drain runs the lanes -----

/// `n` small intact jobs with distinct ids whose app stage counts its run
/// and whose completion counts its delivery on control.
std::vector<ManipulationJob> counted_jobs(int n, std::atomic<int>& ran,
                                          int& delivered) {
  std::vector<ManipulationJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    ManipulationJob j = to_job(id, make_encrypted(id, 64, id),
                               [&delivered](bool intact, buf::BufChain&&,
                                            const obs::CostAccount&) {
                                 EXPECT_TRUE(intact);
                                 ++delivered;
                               });
    j.app_stage = [&ran](buf::BufChain&, obs::CostAccount&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    jobs.push_back(std::move(j));
  }
  return jobs;
}

TEST(EngineWake, JobsSubmittedWithNoHarvestStillComplete) {
  // submit() wakes nobody. A worker's bounded wait still finds its jobs,
  // so they run although no harvest comes; wait_all then delivers every
  // completion, and the destructor returns.
  constexpr int kJobs = 64;
  std::atomic<int> ran{0};
  int delivered = 0;
  {
    Engine eng(EngineConfig{.workers = 2});
    for (auto& j : counted_jobs(kJobs, ran, delivered)) eng.submit(std::move(j));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (ran.load() < kJobs && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(ran.load(), kJobs);
    EXPECT_EQ(delivered, 0);  // completions wait for the control thread
    eng.wait_all();
    EXPECT_EQ(delivered, kJobs);
    EXPECT_EQ(eng.outstanding(), 0u);
  }
}

TEST(EngineWake, DestructorRunsUnharvestedJobsAndReturns) {
  // Jobs still unsignalled at teardown: the destructor stops the workers,
  // each runs every job left in its lane before it exits, and the
  // completions are dropped undelivered (its documented contract).
  constexpr int kJobs = 64;
  std::atomic<int> ran{0};
  int delivered = 0;
  {
    Engine eng(EngineConfig{.workers = 2});
    for (auto& j : counted_jobs(kJobs, ran, delivered)) eng.submit(std::move(j));
  }
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_EQ(delivered, 0);
}

TEST(EngineWake, OverfullLaneFinishesThroughTheFullLaneWake) {
  // More jobs than a lane holds (1,024), submitted back to back with no
  // harvest: the submit that finds the lane full wakes the worker and
  // waits for room, so every job is accepted and completes. The first job
  // holds its worker until that submit has begun, so the lane fills
  // behind it exactly once.
  constexpr int kJobs = 1500;
  constexpr int kLane = 1024;
  std::atomic<int> ran{0};
  std::atomic<int> issued{0};
  std::atomic<bool> entered{false};
  int delivered = 0;
  Engine eng(EngineConfig{.workers = 1});
  auto jobs = counted_jobs(kJobs, ran, delivered);
  jobs[0].app_stage = [&](buf::BufChain&, obs::CostAccount&) {
    ran.fetch_add(1, std::memory_order_relaxed);
    entered.store(true);
    while (issued.load() <= kLane + 1) std::this_thread::yield();
    // Long enough for that submit to find the lane still full.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  issued.store(1);
  eng.submit(std::move(jobs[0]));
  eng.poll();  // the worker claims the first job alone
  while (!entered.load()) std::this_thread::yield();
  for (int i = 1; i < kJobs; ++i) {
    issued.store(i + 1);
    eng.submit(std::move(jobs[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(eng.stats().jobs_submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(eng.stats().submit_backpressure, 1u);
  eng.wait_all();
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_EQ(delivered, kJobs);
  EXPECT_EQ(eng.stats().jobs_completed, static_cast<std::uint64_t>(kJobs));
}

TEST(EngineWake, PollAfterABurstDeliversEveryCompletion) {
  // poll() runs no job: the first wakes the workers holding the burst,
  // and polling on delivers every completion without blocking.
  constexpr int kJobs = 200;
  std::atomic<int> ran{0};
  int delivered = 0;
  Engine eng(EngineConfig{.workers = 2});
  for (auto& j : counted_jobs(kJobs, ran, delivered)) eng.submit(std::move(j));
  std::size_t polled = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (eng.outstanding() > 0 && std::chrono::steady_clock::now() < deadline) {
    polled += eng.poll();
    std::this_thread::yield();
  }
  EXPECT_EQ(polled, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(delivered, kJobs);
  EXPECT_EQ(ran.load(), kJobs);
}

// ---- Lane claims: whoever claims a lane runs all of it ---------------------------

TEST(EngineHarvest, ALaneRunsOnOneThreadAtATimeInSubmitOrder) {
  // Two workers, four ids over their two lanes, three jobs per id per
  // round. Rounds cycle through three harvests: poll(), which wakes the
  // workers; drain() straight after, while a worker may still hold its
  // lane, so the new jobs wait behind its batch; and drain() once the
  // workers are idle, which runs both lanes on this thread. Whoever claims
  // a lane runs it alone, in submit order.
  constexpr unsigned kWorkers = 2;
  constexpr std::uint32_t kIds = 4;
  constexpr int kPerId = 3;
  constexpr int kRounds = 42;
  struct Record {
    std::uint32_t id;
    int seq;
    std::thread::id thread;
  };
  std::mutex records_m;
  std::vector<Record> records;
  std::array<std::atomic<int>, kWorkers> inside{};
  std::map<std::uint32_t, int> submitted;  // per id, this thread only

  Engine eng(EngineConfig{.workers = kWorkers});
  const auto submit_round = [&] {
    for (std::uint32_t id = 1; id <= kIds; ++id) {
      for (int k = 0; k < kPerId; ++k) {
        const int seq = submitted[id]++;
        ManipulationJob j = to_job(
            id, make_encrypted(id, 256, 1000 * id + static_cast<unsigned>(seq)),
            [](bool intact, buf::BufChain&&, const obs::CostAccount&) {
              EXPECT_TRUE(intact);
            });
        j.app_stage = [&, id, seq](buf::BufChain&, obs::CostAccount&) {
          std::atomic<int>& lane = inside[id % kWorkers];
          EXPECT_EQ(lane.fetch_add(1), 0) << "lane " << id % kWorkers;
          {
            std::lock_guard lk(records_m);
            records.push_back({id, seq, std::this_thread::get_id()});
          }
          // Stay inside a while, so an overlapping claim would show.
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::microseconds(20);
          while (std::chrono::steady_clock::now() < until) {
          }
          lane.fetch_sub(1);
        };
        eng.submit(std::move(j));
      }
    }
  };
  // poll() runs nothing itself, so this leaves every job to the workers.
  const auto poll_until_idle = [&eng] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (eng.outstanding() > 0 && std::chrono::steady_clock::now() < deadline) {
      eng.poll();
      std::this_thread::yield();
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    if (round % 3 == 2) poll_until_idle();
    submit_round();
    if (round % 3 == 0) {
      eng.poll();
    } else {
      eng.drain();
    }
  }
  submit_round();
  poll_until_idle();
  eng.wait_all();

  constexpr std::size_t kJobs = (kRounds + 1) * kIds * kPerId;
  ASSERT_EQ(records.size(), kJobs);
  EXPECT_EQ(eng.stats().jobs_completed, kJobs);
  std::map<std::uint32_t, int> next;
  std::uint64_t on_control = 0;
  for (const Record& r : records) {
    EXPECT_EQ(r.seq, next[r.id]++) << "id " << r.id;
    if (r.thread == std::this_thread::get_id()) ++on_control;
  }
  EXPECT_EQ(eng.stats().inline_executions, on_control);
  EXPECT_GT(on_control, 0u);       // drain() claimed lanes
  EXPECT_LT(on_control, kJobs);    // and so did the workers
}

// ---- Kernel-tier invariance ------------------------------------------------------

TEST(EngineKernelTiers, PayloadsAndLedgerIdenticalAcrossTiers) {
  // The SIMD dispatch tier may only change HOW the engine's kernels move
  // bytes, never WHAT comes out: the same encrypted batch decrypts to
  // byte-identical payloads and the §4 ledger (analytic memory passes,
  // not instructions) is identical under every tier this host supports.
  constexpr int kJobs = 24;
  const simd::KernelTier saved = simd::active_tier();

  const auto run_batch = [&](simd::KernelTier tier) {
    EXPECT_TRUE(simd::set_active_tier(tier));
    std::map<std::uint32_t, ByteBuffer> out;
    obs::CostAccount cost;
    Engine eng(EngineConfig{.workers = 4});
    for (int i = 1; i <= kJobs; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      MadeJob m = make_encrypted(id, 300 + i * 37, 7000 + i);
      eng.submit(to_job(id, m, [&, id](bool intact, buf::BufChain&& chain,
                                       const obs::CostAccount& c) {
        ASSERT_TRUE(intact);
        out.emplace(id, chain.flatten());
        cost.merge(c);
      }));
    }
    eng.wait_all();
    return std::pair{std::move(out), cost};
  };

  const auto [ref, ref_cost] = run_batch(simd::KernelTier::kScalar);
  ASSERT_EQ(ref.size(), static_cast<std::size_t>(kJobs));
  for (std::size_t t = 0; t < simd::kKernelTierCount; ++t) {
    const auto tier = static_cast<simd::KernelTier>(t);
    if (simd::tier_table(tier) == nullptr) continue;  // not on this host
    const auto [out, cost] = run_batch(tier);
    ASSERT_EQ(out.size(), ref.size()) << simd::tier_name(tier);
    for (const auto& [id, payload] : ref) {
      EXPECT_EQ(out.at(id), payload)
          << simd::tier_name(tier) << " ADU " << id;
    }
    expect_costs_equal(cost, ref_cost);
  }
  simd::set_active_tier(saved);
}

// ---- Adversarial completion schedule ---------------------------------------------

TEST(EngineReorder, SeededScheduleScramblesDeterministically) {
  const auto run_once = [](std::uint64_t seed) {
    Engine eng(EngineConfig{.reorder_seed = seed});
    std::vector<std::uint32_t> order;
    for (std::uint32_t id = 1; id <= 16; ++id) {
      MadeJob m = make_encrypted(id, 256, id);
      eng.submit(to_job(id, m, [&order, id](bool, buf::BufChain&&,
                                            const obs::CostAccount&) {
        order.push_back(id);
      }));
    }
    eng.drain();  // one batch: all sixteen, shuffled together
    return order;
  };
  const auto a = run_once(99);
  const auto b = run_once(99);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a, b);  // deterministic given the seed
  std::vector<std::uint32_t> submitted(16);
  for (std::uint32_t i = 0; i < 16; ++i) submitted[i] = i + 1;
  EXPECT_NE(a, submitted);  // and genuinely adversarial
}

// ---- Observability ---------------------------------------------------------------

TEST(EngineObs, RegistersCountersAndPerWorkerStats) {
  obs::MetricsRegistry reg;
  Engine eng(EngineConfig{.workers = 2});
  eng.register_metrics(reg, "engine");
  for (std::uint32_t id = 1; id <= 8; ++id) {
    MadeJob m = make_encrypted(id, 4096, id);
    eng.submit(to_job(id, m, [](bool, buf::BufChain&&, const obs::CostAccount&) {}));
  }
  eng.wait_all();
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("engine.jobs_submitted"), 8u);
  EXPECT_EQ(snap.counter_or("engine.jobs_completed"), 8u);
  EXPECT_EQ(snap.counter_or("engine.worker0.jobs") +
                snap.counter_or("engine.worker1.jobs"),
            8u);
  EXPECT_NE(snap.find("engine.queue_depth"), nullptr);
  EXPECT_NE(snap.find("engine.job_latency_us"), nullptr);
}

// ---- Receiver teardown -----------------------------------------------------------

TEST(EngineTeardown, FailedReceiverSettlesItsJobsOnDestruction) {
  // A session that fails with a job in flight cancels its harvest pump,
  // but the job's completion still calls into the receiver: destroying the
  // receiver must settle it, or the next drain (a successor's pump on the
  // same engine, another session's, or wait_all) runs it on freed memory.
  Engine eng;  // inline: the job runs at submit, its harvest waits
  EventLoop loop;
  test::LoopbackPath data;
  test::SinkPath feedback;
  alf::SessionConfig cfg;
  cfg.stall_timeout = 10 * kMillisecond;
  auto receiver = std::make_unique<alf::AlfReceiver>(loop, data, feedback, cfg);
  receiver->set_engine(&eng, 50 * kMillisecond);
  int delivered = 0;
  receiver->set_on_adu([&delivered](Adu&&) { ++delivered; });

  ByteBuffer payload(1000);
  Rng(9).fill(payload.span());
  alf::DataFragment f =
      test::make_fragment(cfg.session_id, 1, payload.span(), 1000, 0);
  f.adu_checksum = compute_checksum(ChecksumKind::kInternet, payload.span());
  data.send(alf::encode_fragment(f).span());
  EXPECT_EQ(receiver->stats().adus_engine_offloaded, 1u);

  // The watchdog fails the session at 10 ms, before the 50 ms harvest.
  loop.run_until(20 * kMillisecond);
  EXPECT_TRUE(receiver->failed());
  EXPECT_EQ(eng.outstanding(), 1u);

  receiver.reset();
  ASSERT_EQ(eng.outstanding(), 0u);
  eng.wait_all();  // nothing is left to call into the dead receiver
  EXPECT_EQ(delivered, 0);
}

// ---- kNone DONE while stage 2 is in flight ---------------------------------------

/// Workers, and whether ADU 2 carries a wrong adu_checksum.
class EngineNoRecoveryDone
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(EngineNoRecoveryDone, VerifyingAdusSettleOnceAndCompletionComesLast) {
  // Without recovery, DONE reports every open ADU lost. ADUs verifying on
  // the engine are not open: each settles on its own when harvested —
  // delivered, or lost once by name if it fails its checksum — and the
  // session completes after the last of them.
  const auto [workers, corrupt] = GetParam();
  Engine eng(EngineConfig{.workers = workers});
  alf::SessionConfig cfg;
  cfg.retransmit = alf::RetransmitPolicy::kNone;
  test::ReceiverFixture fx(cfg);
  fx.receiver->set_engine(&eng, 5 * kMillisecond);
  int delivered = 0, lost = 0, completions = 0;
  bool outcome_after_complete = false;
  std::vector<std::pair<AduName, bool>> lost_names;
  fx.receiver->set_on_adu([&](Adu&&) {
    ++delivered;
    outcome_after_complete |= completions > 0;
  });
  fx.receiver->set_on_adu_lost([&](std::uint32_t, const AduName& name, bool known) {
    ++lost;
    lost_names.emplace_back(name, known);
    outcome_after_complete |= completions > 0;
  });
  fx.receiver->set_on_complete([&] { ++completions; });

  for (std::uint32_t id = 1; id <= 3; ++id) {
    ByteBuffer payload(500);
    Rng(id).fill(payload.span());
    alf::DataFragment f = test::make_fragment(cfg.session_id, id, payload.span(), 500, 0);
    f.adu_checksum = compute_checksum(ChecksumKind::kInternet, payload.span());
    if (corrupt && id == 2) f.adu_checksum ^= 1;
    fx.inject(f);
  }
  alf::DoneMessage done;
  done.session = cfg.session_id;
  done.total_adus = 3;
  fx.data.send(alf::encode_done(done).span());
  EXPECT_EQ(delivered + lost, 0);  // all three are still verifying
  EXPECT_EQ(completions, 0);

  fx.loop.run();
  EXPECT_EQ(delivered, corrupt ? 2 : 3);
  EXPECT_EQ(lost, corrupt ? 1 : 0);
  if (corrupt) {
    ASSERT_EQ(lost_names.size(), 1u);
    EXPECT_EQ(lost_names[0].first, generic_name(2));
    EXPECT_TRUE(lost_names[0].second);  // name_known
  }
  EXPECT_EQ(fx.receiver->stats().adus_checksum_failed, corrupt ? 1u : 0u);
  EXPECT_EQ(fx.receiver->stats().adus_delivered + fx.receiver->stats().adus_abandoned, 3u);
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(outcome_after_complete);
  EXPECT_TRUE(fx.receiver->complete());
}

INSTANTIATE_TEST_SUITE_P(WorkersAndChecksum, EngineNoRecoveryDone,
                         ::testing::Combine(::testing::Values(0u, 2u),
                                            ::testing::Bool()));

// ---- The property: schedule-invariant transfers ----------------------------------

namespace property {

using namespace ngp::alf;

constexpr std::size_t kFileBytes = 256 * 1024;
constexpr std::size_t kAduSize = 6000;

struct RunResult {
  std::vector<std::uint8_t> file;
  obs::CostAccount cost;
  std::uint64_t offloaded = 0;
  bool completed = false;
};

LinkConfig prop_link() {
  LinkConfig cfg;
  cfg.bandwidth_bps = 200e6;
  cfg.propagation_delay = 2 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  return cfg;
}

/// One full encrypted+lossy ALF transfer under the given execution
/// schedule: workers=0 legacy inline (use_engine=false), a real worker
/// pool, or inline-with-adversarial-reorder.
RunResult run_transfer(bool use_engine, unsigned workers, std::uint64_t reorder_seed) {
  SessionConfig scfg;
  scfg.encrypt = true;
  scfg.key = test_key();
  scfg.nack_delay = 10 * kMillisecond;
  scfg.nack_retry = 20 * kMillisecond;

  Engine eng(EngineConfig{.workers = workers, .reorder_seed = reorder_seed});
  EventLoop loop;
  DuplexChannel channel(loop, prop_link(), prop_link());
  channel.forward.set_loss_rate(0.05);  // recovery machinery engaged too
  LinkPath data(channel.forward), fb_tx(channel.reverse), fb_rx(channel.reverse);
  AlfSender sender(loop, data, fb_rx, scfg);
  AlfReceiver receiver(loop, data, fb_tx, scfg);
  if (use_engine) receiver.set_engine(&eng, kMillisecond);

  FileSink sink(kFileBytes);
  receiver.set_on_adu([&sink](Adu&& a) { ASSERT_TRUE(sink.place(a).ok()); });

  ByteBuffer file(kFileBytes);
  Rng rng(12345);
  rng.fill(file.span());
  for (std::size_t off = 0; off < kFileBytes; off += kAduSize) {
    const std::size_t len = std::min(kAduSize, kFileBytes - off);
    auto res = sender.send_adu(FileRegionName{off, len}.to_name(),
                               file.span().subspan(off, len));
    EXPECT_TRUE(res.ok());
  }
  sender.finish();
  loop.run();

  RunResult r;
  r.completed = receiver.complete();
  r.file.assign(sink.contents().begin(), sink.contents().end());
  r.cost = receiver.manipulation_cost();
  r.offloaded = receiver.stats().adus_engine_offloaded;
  return r;
}

TEST(EngineProperty, SinkBytesAndCostLedgerInvariantAcrossSchedules) {
  const RunResult legacy = run_transfer(false, 0, 0);
  ASSERT_TRUE(legacy.completed);
  EXPECT_EQ(legacy.offloaded, 0u);

  const RunResult pooled = run_transfer(true, 4, 0);
  ASSERT_TRUE(pooled.completed);
  EXPECT_GT(pooled.offloaded, 0u);

  const RunResult reordered = run_transfer(true, 0, 0xFEEDFACE);
  ASSERT_TRUE(reordered.completed);
  EXPECT_GT(reordered.offloaded, 0u);

  // ALF's whole case (§5): the application result is addressed by ADU
  // name, so the assembled file is byte-identical whatever schedule the
  // manipulation ran under...
  EXPECT_EQ(pooled.file, legacy.file);
  EXPECT_EQ(reordered.file, legacy.file);
  // ...and the §4 ledger is a commutative sum of per-ADU charges, so it is
  // identical too — the engine is free, accounting-wise.
  expect_costs_equal(pooled.cost, legacy.cost);
  expect_costs_equal(reordered.cost, legacy.cost);
}

}  // namespace property

}  // namespace
}  // namespace ngp::engine
