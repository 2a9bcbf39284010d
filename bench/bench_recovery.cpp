// bench_recovery — E10: the self-healing session plane under path kills.
//
// Four scenarios over the same paced ALF transfer (DESIGN.md §10):
//
//   fault-free   supervised stack, clean path: the goodput yardstick.
//   path kill    a mid-transfer outage that outlasts the stall watchdog.
//                Run twice: a bare AlfSender/AlfReceiver pair (terminal
//                watchdog failure — the pre-§10 behaviour) and a
//                SessionSupervisor (epoch bump + delta RESUME, transfer
//                completes). Reports goodput and time-to-recover.
//   breaker      the same kill behind a SwitchingPath with a clean
//                alternate: the circuit breaker fails over in a few poll
//                intervals, pre-empting the watchdog entirely (zero
//                restarts).
//   overload     a blackholing path piles up incomplete ADUs; the receiver
//                sheds lowest-priority reassembly state at the high-water
//                mark instead of stalling or failing.
//
// HOLDS self-checks (exit non-zero on violation):
//   * the unsupervised baseline fails terminally on the kill storm;
//   * the supervised stack completes it, byte-complete;
//   * supervised goodput >= 70% of fault-free (full mode; the smoke file is
//     too small to amortize one watchdog round-trip, so smoke reports the
//     ratio without gating on it);
//   * time-to-recover (outage end -> supervisor back to running) <= 1s;
//   * the breaker run completes with zero supervisor restarts;
//   * shedding fires under overload, the session still ends decisively,
//     and every shed ADU was low-priority.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "netsim/fault.h"
#include "netsim/link.h"
#include "resilience/breaker.h"
#include "resilience/supervisor.h"
#include "sessiond/sessiond.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace ngp;

constexpr double kLinkBps = 50e6;
constexpr std::size_t kAduSize = 8000;
constexpr SimDuration kRunCap = 120 * kSecond;

std::size_t file_bytes(bool smoke) { return smoke ? (1u << 21) : (16u << 20); }

constexpr std::size_t kFeedChunk = 32;               // ADUs per feed tick
constexpr SimDuration kFeedTick = 40 * kMillisecond;  // ~51 Mb/s offered

LinkConfig data_link() {
  LinkConfig cfg;
  cfg.bandwidth_bps = kLinkBps;
  cfg.propagation_delay = 2 * kMillisecond;
  cfg.queue_limit = 1 << 16;
  return cfg;
}

// Unpaced: the whole file is staged at once and the link's serializer
// paces the wire (the idiom every bench here uses — sender-side pacing
// would entangle the measurement with the PROGRESS rate-adaptation loop).
alf::SessionConfig session_config() {
  return {.nack_delay = 10 * kMillisecond,
          .nack_retry = 20 * kMillisecond,
          .max_nacks = 30,
          .adu_id_window = 8192,
          .stall_timeout = 300 * kMillisecond};
}

resilience::SupervisorConfig supervisor_config(std::uint64_t seed) {
  resilience::SupervisorConfig cfg;
  cfg.seed = seed;
  cfg.max_restarts = 8;
  // Long enough that the first restart's re-stage burst goes out after the
  // 400ms kill window has closed (watchdog fires ~300ms into it): riding
  // out the fault in backoff is what backoff is for. Jitter is additive,
  // so the base is a guaranteed minimum.
  cfg.restart_backoff = 150 * kMillisecond;
  cfg.max_resume_retries = 30;
  return cfg;
}

struct RunResult {
  bool completed = false;
  bool failed = false;          ///< terminal failure (watchdog / permanent)
  double completion_s = 0;
  double goodput_mbps = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t adus_resent = 0;
  std::uint64_t adus_resume_skipped = 0;
  std::uint64_t adus_shed = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_failovers = 0;
  std::uint64_t lost_low_priority = 0;
  std::uint64_t lost_high_priority = 0;
  double time_to_recover_s = -1;  ///< outage end -> back to running; -1 = n/a
};

void finish_result(RunResult& r, SimTime done_at) {
  r.completion_s = to_seconds(r.completed ? done_at : kRunCap);
  r.goodput_mbps = megabits_per_second(r.delivered_bytes, r.completion_s);
}

/// Offers the whole file as fixed-size ADUs (ids 1..N) in one burst.
template <typename SendFn>
void offer_file(std::size_t bytes, SendFn&& send) {
  Rng rng(1);
  std::uint64_t id = 1;
  for (std::size_t off = 0; off < bytes; off += kAduSize, ++id) {
    const std::size_t len = std::min(kAduSize, bytes - off);
    ByteBuffer b(len);
    rng.fill(b.span());
    send(id, b);
  }
}

/// App-paced feeder: offers kFeedChunk ADUs every kFeedTick (slightly above
/// the link rate) and finishes after the last one. Gradual offering keeps
/// the link queue shallow — a whole-file burst would leave seconds of
/// stale-epoch backlog in front of every post-restart retransmission,
/// which no amount of supervision can pay for. `send` returns false to
/// stop feeding (terminal failure). Returns the feeder to keep alive.
struct Feeder {
  std::function<void()> tick;
  std::uint64_t next_id = 1;
  Rng rng{1};
};

template <typename SendFn, typename FinishFn>
void start_feeder(Feeder& f, EventLoop& loop, std::size_t bytes, SendFn send,
                  FinishFn finish) {
  const std::uint64_t total = (bytes + kAduSize - 1) / kAduSize;
  f.tick = [&f, &loop, bytes, total, send, finish] {
    for (std::size_t i = 0; i < kFeedChunk && f.next_id <= total;
         ++i, ++f.next_id) {
      const std::size_t off = (f.next_id - 1) * kAduSize;
      const std::size_t len = std::min(kAduSize, bytes - off);
      ByteBuffer b(len);
      f.rng.fill(b.span());
      if (!send(f.next_id, b)) return;
    }
    if (f.next_id <= total) {
      loop.schedule_after(kFeedTick, [&f] { f.tick(); });
    } else {
      finish();
    }
  };
  f.tick();
}

/// Unsupervised endpoint pair over a faulty data path — the pre-§10 stack,
/// opened through the session plane (open() without supervision builds the
/// same bare AlfSender/AlfReceiver pair the hand-wired version did).
RunResult run_unsupervised(std::size_t bytes, FaultPlan plan) {
  EventLoop loop;
  DuplexChannel ch(loop, data_link(), data_link());
  LinkPath raw(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);
  FaultyPath data(loop, raw, std::move(plan));

  sessiond::Sessiond daemon(loop);
  auto opened = daemon.open(session_config(), {&data, &fb_tx, &fb_rx});
  if (!opened.ok()) std::abort();
  sessiond::AlfSession& sess = *opened.value();

  RunResult r;
  SimTime done_at = kRunCap;
  sess.set_on_adu([&](Adu&& a) {
    ++r.delivered;
    r.delivered_bytes += a.payload.size();
  });
  sess.set_on_complete([&] {
    r.completed = true;
    done_at = loop.now();
  });

  Feeder feeder;
  start_feeder(
      feeder, loop, bytes,
      [&](std::uint64_t id, const ByteBuffer& b) {
        return sess.send_adu(generic_name(id), b.span()).ok();
      },
      [&] { sess.finish(); });
  loop.run_until(kRunCap);

  r.failed = sess.receiver().failed() || sess.sender().failed();
  finish_result(r, done_at);
  return r;
}

/// Supervised transfer over `data`. `outage_end` (if >= 0) enables the
/// time-to-recover probe: a 5ms state poll records when the supervisor is
/// first back in kRunning after the path returns.
RunResult run_supervised(std::size_t bytes, EventLoop& loop, NetPath& data,
                         NetPath& fb_tx, NetPath& fb_rx,
                         resilience::SupervisorConfig scfg,
                         SimTime outage_end = -1,
                         resilience::SwitchingPath* breaker = nullptr) {
  // Supervision is an open()-time opt-in: the session's callbacks forward
  // to the supervisor, so they survive restarts; supervisor-only probes
  // (state, restart stats) go through supervisor().
  sessiond::Sessiond daemon(loop);
  auto opened = daemon.open(session_config(), {&data, &fb_tx, &fb_rx},
                            {.supervisor = scfg});
  if (!opened.ok()) std::abort();
  sessiond::AlfSession& sess = *opened.value();
  resilience::SessionSupervisor& sup = *sess.supervisor();

  RunResult r;
  SimTime done_at = kRunCap;
  sess.set_on_adu([&](Adu&& a) {
    ++r.delivered;
    r.delivered_bytes += a.payload.size();
  });
  sess.set_on_complete([&] {
    r.completed = true;
    done_at = loop.now();
  });
  sup.set_on_permanent_failure([&] { r.failed = true; });

  bool saw_recovery_gap = false;
  std::function<void()> probe = [&] {
    if (r.completed || r.failed) return;
    if (sup.state() != resilience::SupervisorState::kRunning) {
      saw_recovery_gap = true;
    } else if (saw_recovery_gap && r.time_to_recover_s < 0 &&
               loop.now() >= outage_end) {
      r.time_to_recover_s = to_seconds(loop.now() - outage_end);
    }
    loop.schedule_after(5 * kMillisecond, probe);
  };
  if (outage_end >= 0) probe();

  Feeder feeder;
  start_feeder(
      feeder, loop, bytes,
      [&](std::uint64_t id, const ByteBuffer& b) {
        return sess.send_adu(generic_name(id), b.span()).ok();
      },
      [&] { sess.finish(); });
  loop.run_until(kRunCap);

  r.restarts = sup.stats().restarts;
  r.adus_resent = sup.stats().adus_resent;
  r.adus_resume_skipped = sup.stats().adus_resume_skipped;
  if (breaker != nullptr) {
    r.breaker_trips = breaker->stats().trips;
    r.breaker_failovers = breaker->stats().failovers;
  }
  finish_result(r, done_at);
  return r;
}

RunResult run_fault_free(std::size_t bytes, std::uint64_t seed) {
  EventLoop loop;
  DuplexChannel ch(loop, data_link(), data_link());
  LinkPath data(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);
  return run_supervised(bytes, loop, data, fb_tx, fb_rx,
                        supervisor_config(seed));
}

/// The kill: dark from 1/4 of the nominal (link-limited) transfer time,
/// for long enough that the stall watchdog must fire. The burst is already
/// in the link queue by then, so the outage kills ARRIVALS — FaultyPath
/// drops frames surfacing during a dark window just as it drops sends.
std::pair<SimTime, SimDuration> kill_window(std::size_t bytes) {
  const auto nominal =
      static_cast<SimDuration>(static_cast<double>(bytes) * 8 / kLinkBps * kSecond);
  return {nominal / 4, 400 * kMillisecond};
}

RunResult run_kill_supervised(std::size_t bytes, std::uint64_t seed) {
  EventLoop loop;
  DuplexChannel ch(loop, data_link(), data_link());
  LinkPath raw(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);
  const auto [start, duration] = kill_window(bytes);
  FaultPlan plan;
  plan.seed = seed;
  plan.scheduled_outages.push_back({start, duration});
  FaultyPath data(loop, raw, std::move(plan));
  return run_supervised(bytes, loop, data, fb_tx, fb_rx,
                        supervisor_config(seed), start + duration);
}

RunResult run_kill_unsupervised(std::size_t bytes, std::uint64_t seed) {
  const auto [start, duration] = kill_window(bytes);
  FaultPlan plan;
  plan.seed = seed;
  plan.scheduled_outages.push_back({start, duration});
  return run_unsupervised(bytes, std::move(plan));
}

/// The same kill behind a circuit breaker with a clean alternate path: the
/// kill lasts the whole run; only failover can finish the transfer.
RunResult run_breaker(std::size_t bytes, std::uint64_t seed) {
  EventLoop loop;
  LinkConfig link = data_link();
  DuplexChannel ch_a(loop, link, link);
  DuplexChannel ch_b(loop, link, link);

  LinkPath raw_a(ch_a.forward);
  const auto [start, duration] = kill_window(bytes);
  (void)duration;
  FaultPlan plan_a;
  plan_a.seed = seed;
  plan_a.scheduled_outages.push_back({start, kRunCap});
  FaultyPath path_a(loop, raw_a, std::move(plan_a));

  LinkPath raw_b(ch_b.forward);
  FaultPlan plan_b;
  plan_b.seed = seed + 1;  // fault-free; supplies offered/delivered counters
  FaultyPath path_b(loop, raw_b, std::move(plan_b));

  resilience::BreakerConfig bcfg;
  bcfg.poll_interval = 20 * kMillisecond;
  bcfg.min_polls = 3;
  resilience::SwitchingPath sw(loop, bcfg);
  sw.add_path(path_a, [&path_a] {
    return resilience::PathSample{path_a.stats().frames_offered,
                                  path_a.stats().frames_delivered};
  });
  sw.add_path(path_b, [&path_b] {
    return resilience::PathSample{path_b.stats().frames_offered,
                                  path_b.stats().frames_delivered};
  });
  sw.set_probe([](std::uint32_t seq) {
    alf::ProbeMessage p;
    p.session = 1;
    p.seq = seq;
    return alf::encode_probe(p);
  });
  sw.start();

  LinkPath fb_tx(ch_a.reverse), fb_rx(ch_a.reverse);
  return run_supervised(bytes, loop, sw, fb_tx, fb_rx,
                        supervisor_config(seed), /*outage_end=*/-1, &sw);
}

/// Overload: a blackholing path leaves holes in many ADUs at once, piling
/// up partial reassembly state. A low high-water mark forces the receiver
/// to shed — by priority — instead of growing without bound. Odd ids are
/// marked low-priority; even ids must survive.
RunResult run_overload(std::size_t bytes, std::uint64_t seed) {
  EventLoop loop;
  DuplexChannel ch(loop, data_link(), data_link());
  LinkPath raw(ch.forward), fb_tx(ch.reverse), fb_rx(ch.reverse);
  FaultPlan plan;
  plan.seed = seed;
  plan.blackhole_rate = 0.25;
  FaultyPath data(loop, raw, std::move(plan));

  resilience::SupervisorConfig scfg = supervisor_config(seed);
  // The burst puts the whole file in flight at once, so every blackholed
  // fragment leaves another partial ADU in reassembly — the memory pressure
  // that crosses the high-water mark. The NACK budget stays generous so
  // shedding, not retry exhaustion, decides which ADUs are lost. One ADU
  // in eight is high-priority; their combined footprint (bytes/8) sits
  // safely below the low-water mark, so a correct lowest-priority-first
  // policy never needs to touch them.
  alf::SessionConfig session = session_config();
  session.shed_highwater = bytes / 3;
  session.shed_lowwater = bytes / 5;
  sessiond::Sessiond daemon(loop);
  auto opened = daemon.open(session, {&data, &fb_tx, &fb_rx}, {.supervisor = scfg});
  if (!opened.ok()) std::abort();
  sessiond::AlfSession& sess = *opened.value();
  sess.set_priority(
      [](const AduName& n) { return (n.a % 8 == 0) ? 5 : 1; });

  RunResult r;
  SimTime done_at = kRunCap;
  sess.set_on_adu([&](Adu&& a) {
    ++r.delivered;
    r.delivered_bytes += a.payload.size();
  });
  sess.set_on_complete([&] {
    r.completed = true;
    done_at = loop.now();
  });
  sess.supervisor()->set_on_permanent_failure([&] { r.failed = true; });
  sess.set_on_adu_lost([&](std::uint32_t, const AduName& n, bool) {
    ++(n.a % 8 == 0 ? r.lost_high_priority : r.lost_low_priority);
  });

  offer_file(bytes, [&](std::uint64_t id, const ByteBuffer& b) {
    if (!sess.send_adu(generic_name(id), b.span()).ok()) std::abort();
  });
  sess.finish();
  loop.run_until(kRunCap);

  r.restarts = sess.supervisor()->stats().restarts;
  r.adus_shed = sess.receiver().stats().adus_shed;
  finish_result(r, done_at);
  return r;
}

void print_result(const char* label, const RunResult& r) {
  const char* end = r.completed ? "complete" : (r.failed ? "FAILED" : "DNF");
  std::printf("%12s | %8.3f %8.1f %9s | restarts %llu resent %llu shed %llu",
              label, r.completion_s, r.goodput_mbps, end,
              static_cast<unsigned long long>(r.restarts),
              static_cast<unsigned long long>(r.adus_resent),
              static_cast<unsigned long long>(r.adus_shed));
  if (r.time_to_recover_s >= 0) {
    std::printf(" ttr %.0fms", r.time_to_recover_s * 1e3);
  }
  if (r.breaker_trips > 0) {
    std::printf(" trips %llu failovers %llu",
                static_cast<unsigned long long>(r.breaker_trips),
                static_cast<unsigned long long>(r.breaker_failovers));
  }
  std::printf("\n");
}

std::string result_json(const char* name, const RunResult& r) {
  bench::JsonWriter w;
  w.field("scenario", name)
      .field("completed", r.completed)
      .field("failed", r.failed)
      .field("completion_s", r.completion_s)
      .field("goodput_mbps", r.goodput_mbps)
      .field("delivered", r.delivered)
      .field("restarts", r.restarts)
      .field("adus_resent", r.adus_resent)
      .field("adus_resume_skipped", r.adus_resume_skipped)
      .field("adus_shed", r.adus_shed)
      .field("breaker_trips", r.breaker_trips)
      .field("breaker_failovers", r.breaker_failovers)
      .field("time_to_recover_s", r.time_to_recover_s);
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(&argc, argv);
  const std::uint64_t seed = args.seed;
  const std::size_t bytes = file_bytes(args.smoke);
  const std::uint64_t total_adus = (bytes + kAduSize - 1) / kAduSize;

  std::printf("=== E10: self-healing session plane (supervised recovery) ===\n");
  std::printf("file %zu bytes (%llu ADUs), link %.0f Mb/s, seed %llu%s\n\n",
              bytes, static_cast<unsigned long long>(total_adus), kLinkBps / 1e6,
              static_cast<unsigned long long>(seed),
              args.smoke ? ", SMOKE" : "");
  std::printf("%12s | %8s %8s %9s | recovery\n", "scenario", "time(s)", "Mb/s",
              "end");

  const RunResult base = run_fault_free(bytes, seed);
  print_result("fault-free", base);
  const RunResult kill_un = run_kill_unsupervised(bytes, seed);
  print_result("kill (bare)", kill_un);
  const RunResult kill_sup = run_kill_supervised(bytes, seed);
  print_result("kill (sup)", kill_sup);
  const RunResult brk = run_breaker(bytes, seed);
  print_result("breaker", brk);
  const RunResult shed = run_overload(bytes, seed);
  print_result("overload", shed);

  const double goodput_ratio =
      base.goodput_mbps > 0 ? kill_sup.goodput_mbps / base.goodput_mbps : 0;

  // HOLDS: the properties the paper-reproduction claims rest on.
  struct Hold {
    const char* name;
    bool ok;
  };
  std::vector<Hold> holds;
  holds.push_back({"baseline_fails_terminally", !kill_un.completed && kill_un.failed});
  holds.push_back({"supervised_completes",
                   kill_sup.completed && kill_sup.delivered == total_adus});
  holds.push_back({"supervised_goodput_70pct",
                   args.smoke || goodput_ratio >= 0.70});
  holds.push_back({"time_to_recover_1s",
                   kill_sup.time_to_recover_s >= 0 &&
                       kill_sup.time_to_recover_s <= 1.0});
  holds.push_back({"breaker_avoids_restart",
                   brk.completed && brk.restarts == 0 && brk.breaker_trips >= 1});
  holds.push_back({"shedding_is_priority_aware",
                   !shed.failed && shed.adus_shed > 0 &&
                       shed.lost_high_priority == 0});

  bool all_ok = true;
  std::printf("\nHOLDS:\n");
  for (const Hold& h : holds) {
    std::printf("  %-28s %s\n", h.name, h.ok ? "ok" : "VIOLATED");
    all_ok = all_ok && h.ok;
  }
  std::printf("\nshape check: supervision turns a terminal mid-transfer path kill\n"
              "into one recovered epoch (goodput ratio %.2f vs fault-free), and a\n"
              "breaker with an alternate path avoids the watchdog entirely.\n",
              goodput_ratio);

  std::string scenarios;
  for (const auto& [name, r] :
       std::initializer_list<std::pair<const char*, const RunResult*>>{
           {"fault_free", &base},
           {"kill_unsupervised", &kill_un},
           {"kill_supervised", &kill_sup},
           {"breaker", &brk},
           {"overload", &shed}}) {
    if (!scenarios.empty()) scenarios += ',';
    scenarios += result_json(name, *r);
  }
  std::string holds_json;
  for (const Hold& h : holds) {
    if (!holds_json.empty()) holds_json += ',';
    bench::JsonWriter w;
    holds_json += w.field("name", h.name).field("ok", h.ok).str();
  }
  bench::JsonWriter top;
  top.field("seed", seed)
      .field("smoke", args.smoke)
      .field("file_bytes", static_cast<std::uint64_t>(bytes))
      .field("goodput_ratio", goodput_ratio)
      .raw("scenarios", "[" + scenarios + "]")
      .raw("holds", "[" + holds_json + "]")
      .field("all_holds_ok", all_ok);
  const std::string json = top.str();
  if (!bench::json_well_formed(json)) {
    std::fprintf(stderr, "bench_recovery: malformed RECOVERY_JSON\n");
    return 1;
  }
  bench::emit_json("RECOVERY_JSON", json);

  bench::BenchReport rep("recovery", args);
  rep.tracked("goodput_ratio", goodput_ratio, /*higher=*/true, 0.25)
      .tracked("supervised_delivered", kill_sup.delivered, /*higher=*/true, 0.0)
      .metric("fault_free_mbps", base.goodput_mbps)
      .metric("supervised_mbps", kill_sup.goodput_mbps)
      .metric("time_to_recover_s", kill_sup.time_to_recover_s)
      .metric("breaker_trips", brk.breaker_trips)
      .metric("adus_shed", shed.adus_shed);
  for (const Hold& h : holds) rep.hold(h.name, h.ok);
  rep.detail("scenarios", "[" + scenarios + "]");
  if (!rep.emit("RECOVERY_REPORT_JSON")) return 1;
  return all_ok ? 0 : 1;
}
