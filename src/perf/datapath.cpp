#include "perf/datapath.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/wire.h"
#include "buf/ingress.h"
#include "buf/pool.h"
#include "checksum/checksum.h"
#include "engine/engine.h"
#include "netsim/link.h"
#include "netsim/net_path.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "presentation/plan.h"
#include "sessiond/sessiond.h"
#include "simd/dispatch.h"
#include "util/event_loop.h"
#include "util/rng.h"

#include <chrono>

namespace ngp::perf {

/// Engine harvest pump delay for both workloads' receivers.
constexpr SimDuration kEngineHarvestDelay = 200 * kMicrosecond;

namespace {

/// Decodes which single operator a registry name perturbs.
struct Perturb {
  bool scalar = false;
  bool unfuse = false;
  bool copy_ingress = false;
  bool shrink = false;
  bool copy_stage = false;

  explicit Perturb(const std::string& name) {
    scalar = name == kPerturbScalarKernels;
    unfuse = name == kPerturbUnfusePresentation;
    copy_ingress = name == kPerturbCopyOnIngress;
    shrink = name == kPerturbShrinkEngineWorkers;
    copy_stage = name == kPerturbSyntheticCopy;
  }
};

/// The copy_on_ingress operator on a NetPath: hands the receiver a private
/// copy of every frame, outside any pool segment, so the receiver cannot
/// place by reference and pays one charged placement copy per fragment.
/// The copy itself models the substrate and is charged to no ledger.
class CopyOnIngressPath final : public NetPath {
 public:
  explicit CopyOnIngressPath(NetPath& inner) : inner_(inner) {}

  bool send(ConstBytes frame) override { return inner_.send(frame); }
  void set_handler(FrameHandler handler) override {
    if (!handler) {
      inner_.set_handler(nullptr);
      return;
    }
    inner_.set_handler([this, h = std::move(handler)](ConstBytes frame) {
      copy_.resize(frame.size());
      copy_bytes(copy_.data(), frame.data(), frame.size());
      h(copy_.span());
    });
  }
  std::size_t max_frame_size() const override { return inner_.max_frame_size(); }

 private:
  NetPath& inner_;
  ByteBuffer copy_;
};

/// Restores the pre-run kernel tier no matter how the run exits.
struct TierGuard {
  simd::KernelTier saved = simd::active_tier();
  ~TierGuard() { simd::set_active_tier(saved); }
};

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The one record shape both workloads move: a single int32 array (the
/// Table-1 / E3 conversion-intensive payload).
RecordSchema int_array_schema() {
  return RecordSchema{"perf_ints", {FieldType::kInt32Array}};
}

/// Deterministic per-ADU payload: the data depends only on (seed, adu
/// ordinal), never on the perturbation, so the delivered-output hash is an
/// invariant every perturbed run must reproduce.
std::vector<std::int32_t> adu_ints(std::uint64_t seed, std::uint64_t ordinal,
                                   std::size_t n) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (ordinal + 1)));
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.next());
  return v;
}

/// FNV-1a over one delivered record; XOR-combined across ADUs so the hash
/// is independent of delivery order (the engine's out-of-order license).
std::uint64_t adu_hash(const AduName& name, const Record& rec) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(name.a);
  for (const FieldValue& f : rec) {
    if (const auto* ints = std::get_if<std::vector<std::int32_t>>(&f)) {
      for (std::int32_t x : *ints) mix(static_cast<std::uint32_t>(x));
    }
  }
  return h;
}

/// Shared application-side consumption of a delivered chain: flatten once
/// (the application's final placement from the gather list), optional
/// synthetic copy stage, then the presentation decode (host-order when the
/// plan was fused, the full transform when not), folded into the
/// order-independent hash.
struct AppConsumer {
  const presentation::PresentationPlan* plan = nullptr;
  bool fused = false;
  bool copy_stage = false;
  obs::CostAccount cost;
  std::uint64_t hash = 0;
  std::uint64_t decode_failures = 0;

  void consume(AduChain&& c) {
    ByteBuffer payload = c.payload.flatten();
    cost.charge_pass(payload.size(), /*stores=*/true);
    cost.charge_operation(payload.size());
    if (copy_stage) {
      // The injected operator: one full extra copy pass per ADU.
      ByteBuffer scratch(payload.size());
      copy_bytes(scratch.data(), payload.data(), payload.size());
      cost.charge_pass(payload.size(), /*stores=*/true);
      payload = std::move(scratch);
    }
    Result<Record> rec =
        fused ? presentation::plan_decode_host_order(*plan, payload.span(), &cost)
              : presentation::plan_decode(*plan, payload.span(), &cost);
    if (!rec.ok()) {
      ++decode_failures;
      return;
    }
    hash ^= adu_hash(c.name, *rec);
  }
};

void put(std::map<std::string, double>& ledger, const char* k, double v) {
  ledger[k] = v;
}

}  // namespace

std::vector<PerturbationInfo> DatapathWorkload::perturbations() const {
  using Kind = PerturbationInfo::Kind;
  std::vector<PerturbationInfo> v;
  v.push_back({kPerturbScalarKernels,
               "pin simd dispatch to the scalar tier (ledger-invariant)",
               Kind::kCompute});
  v.push_back({kPerturbUnfusePresentation,
               "no plan fused into stage 2; app pays the decode transform",
               Kind::kMemory});
  v.push_back({kPerturbCopyOnIngress,
               "frames reach the receiver outside the pool: placement copies",
               Kind::kMemory});
  if (opt_.engine_workers > 0) {
    v.push_back({kPerturbShrinkEngineWorkers,
                 "engine worker pool -> 0 (inline at submit)",
                 Kind::kConcurrency});
  }
  v.push_back({kPerturbSyntheticCopy,
               "one extra full copy pass per delivered ADU",
               Kind::kMemory});
  return v;
}

std::uint64_t DatapathWorkload::synthetic_copy_store_bytes() const noexcept {
  const std::size_t wire = 4 + 4 * opt_.ints_per_adu;  // count prefix + elems
  return static_cast<std::uint64_t>(opt_.total_adus) *
         obs::CostAccount::words(wire) * 8;
}

RunMeasurement DatapathWorkload::run(std::size_t offered,
                                     const std::string& perturbation) {
  const Perturb p(perturbation);
  TierGuard tier_guard;
  if (p.scalar) simd::set_active_tier(simd::KernelTier::kScalar);

  EventLoop loop;
  LinkConfig lc;
  lc.bandwidth_bps = 1e9;
  lc.propagation_delay = kMillisecond;
  lc.queue_limit = 1 << 16;
  DuplexChannel channel(loop, lc);
  LinkPath data(channel.forward);
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);

  const RecordSchema schema = int_array_schema();
  std::shared_ptr<const presentation::PresentationPlan> plan =
      presentation::cached_plan(schema, TransferSyntax::kXdr);

  alf::SessionConfig scfg;
  scfg.syntax = TransferSyntax::kXdr;
  scfg.checksum = ChecksumKind::kInternet;
  scfg.encrypt = true;
  // The harness owns the lifecycle (bounded run_until windows, not a
  // full drain): push the heartbeats out of frame and disable the stall
  // watchdog, which would otherwise fail the session the moment the sim
  // clock races past an idle gap.
  scfg.progress_interval = 3600 * kSecond;
  scfg.stall_timeout = 0;
  Rng key_rng(opt_.seed);
  key_rng.fill(MutableBytes{scfg.key.key.data(), scfg.key.key.size()});
  key_rng.fill(MutableBytes{scfg.key.nonce.data(), scfg.key.nonce.size()});

  // Declared before the endpoints, so destroyed after them: the link's
  // in-flight frames and the receiver's chains hold its segments.
  buf::BufferPool pool;
  channel.forward.set_rx_pool(&pool);
  CopyOnIngressPath copying(data);
  alf::AlfSender sender(loop, data, feedback_rx, scfg);
  alf::AlfReceiver receiver(
      loop, p.copy_ingress ? static_cast<NetPath&>(copying) : data, feedback_tx,
      scfg);
  receiver.set_rx_pool(&pool);

  const unsigned workers = p.shrink ? 0 : opt_.engine_workers;
  std::unique_ptr<engine::Engine> eng;
  if (opt_.engine_workers > 0) {
    // The engine stays attached when the perturbation shrinks it: the one
    // operator that changes is the worker-pool size, not the code path.
    engine::EngineConfig ecfg;
    ecfg.workers = workers;
    eng = std::make_unique<engine::Engine>(ecfg);
    receiver.set_engine(eng.get(), kEngineHarvestDelay);
  }

  const bool fused = !p.unfuse;
  if (fused) receiver.set_presentation(plan);

  AppConsumer app;
  app.plan = plan.get();
  app.fused = fused;
  app.copy_stage = p.copy_stage;
  receiver.set_on_adu_chain([&app](AduChain&& c) { app.consume(std::move(c)); });

  // SLO watchdogs: edge-triggered failure detectors that must stay silent
  // on a healthy run — any firing is reported as a perf-report failure.
  obs::MetricsRegistry reg;
  reg.add("rx", receiver);
  obs::TelemetryHub hub(&loop, reg);
  std::vector<std::string> slo_failures;
  const auto watch = [&](const char* metric, const char* label) {
    obs::SloWatch w;
    w.metric = metric;
    w.threshold = 1.0;
    hub.add_watch(w, [&slo_failures, label](const obs::SloEvent&) {
      slo_failures.push_back(label);
    });
  };
  watch("rx.adus_checksum_failed", "rx_checksum_failed");
  watch("rx.adus_abandoned", "rx_adus_abandoned");
  watch("rx.adus_shed", "rx_adus_shed");
  hub.start();

  // The flight recorder is for a separate UNMEASURED run (bench_diagnose
  // toggles collect_flight after diagnose()): recording during measured
  // baselines would bias them against the unrecorded perturbed runs.
  const bool with_flight = opt_.collect_flight && perturbation.empty();
  obs::FlightRecorder flight = obs::make_loop_flight_recorder(loop);
  if (with_flight) {
    flight.set_enabled(true);
    sender.set_flight(&flight);
    receiver.set_flight(&flight);
    if (eng) eng->set_flight(&flight);
  }

  // ---- the measured region: offered-load bursts through the full stack.
  // Bounded run_until windows, never loop.run(): the live session keeps
  // heartbeat timers armed, so the event queue never goes empty.
  const std::size_t burst = std::max<std::size_t>(1, offered);
  const auto t0 = std::chrono::steady_clock::now();
  Record record;
  record.emplace_back(std::vector<std::int32_t>{});
  for (std::size_t sent = 0; sent < opt_.total_adus;) {
    const std::size_t n = std::min(burst, opt_.total_adus - sent);
    for (std::size_t b = 0; b < n; ++b, ++sent) {
      record[0] = adu_ints(opt_.seed, sent, opt_.ints_per_adu);
      sender.send_record(generic_name(sent), *plan, record).value();
    }
    loop.run_until(loop.now() + 10 * kMillisecond);
  }
  sender.finish();
  // Drain: the engine pump's harvest timers ride the sim clock, so keep
  // stepping windows until everything due has landed (capped — a wedged
  // run exits with a short count and the holds flag it).
  for (int i = 0; i < 5000 && receiver.stats().adus_delivered < opt_.total_adus;
       ++i) {
    loop.run_until(loop.now() + 10 * kMillisecond);
  }
  if (eng) {
    eng->wait_all();
    loop.run_until(loop.now() + 10 * kMillisecond);
  }
  const double wall = wall_seconds(t0);
  hub.stop();

  if (with_flight) flight_json_ = flight.latency_table().to_json();

  const alf::ReceiverStats& rs = receiver.stats();
  RunMeasurement m;
  m.payload_bytes = static_cast<double>(rs.payload_bytes_delivered);
  m.cost_units = wall;
  m.output_hash = app.decode_failures == 0 ? app.hash : app.hash ^ app.decode_failures;
  m.slo_failures = std::move(slo_failures);

  const obs::CostAccount& sm = sender.manipulation_cost();
  const obs::CostAccount& rm = receiver.manipulation_cost();
  const obs::CostAccount& rr = receiver.reassembly_cost();
  put(m.ledger, "host_copied_bytes",
      static_cast<double>((sm.word_stores + rm.word_stores + rr.word_stores) * 8));
  put(m.ledger, "memory_passes",
      static_cast<double>(sm.memory_passes + rm.memory_passes + rr.memory_passes +
                          app.cost.memory_passes));
  put(m.ledger, "app_bytes_touched", static_cast<double>(app.cost.bytes_touched));
  put(m.ledger, "app_load_bytes", static_cast<double>(app.cost.word_loads * 8));
  put(m.ledger, "app_store_bytes", static_cast<double>(app.cost.word_stores * 8));
  put(m.ledger, "adus_delivered", static_cast<double>(rs.adus_delivered));
  put(m.ledger, "payload_bytes_delivered",
      static_cast<double>(rs.payload_bytes_delivered));
  put(m.ledger, "adus_presentation_fused",
      static_cast<double>(rs.adus_presentation_fused));
  put(m.ledger, "adus_engine_offloaded",
      static_cast<double>(rs.adus_engine_offloaded));
  put(m.ledger, "adus_chain_delivered",
      static_cast<double>(rs.adus_chain_delivered));
  put(m.ledger, "fragments_zero_copy", static_cast<double>(rs.fragments_zero_copy));
  put(m.ledger, "fragments_pool_copied",
      static_cast<double>(rs.fragments_pool_copied));
  return m;
}

// ---------------------------------------------------------------------------
// SessiondPlaneWorkload
// ---------------------------------------------------------------------------

std::vector<PerturbationInfo> SessiondPlaneWorkload::perturbations() const {
  using Kind = PerturbationInfo::Kind;
  std::vector<PerturbationInfo> v;
  v.push_back({kPerturbScalarKernels,
               "pin simd dispatch to the scalar tier (ledger-invariant)",
               Kind::kCompute});
  v.push_back({kPerturbUnfusePresentation,
               "no plan fused into stage 2; app pays the decode transform",
               Kind::kMemory});
  v.push_back({kPerturbCopyOnIngress,
               "frames dispatched from outside the pool: placement copies",
               Kind::kMemory});
  if (opt_.engine_workers > 0) {
    v.push_back({kPerturbShrinkEngineWorkers,
                 "engine worker pool -> 0 (inline at submit)",
                 Kind::kConcurrency});
  }
  v.push_back({kPerturbSyntheticCopy,
               "one extra full copy pass per delivered ADU",
               Kind::kMemory});
  return v;
}

RunMeasurement SessiondPlaneWorkload::run(std::size_t offered,
                                          const std::string& perturbation) {
  const Perturb p(perturbation);
  TierGuard tier_guard;
  if (p.scalar) simd::set_active_tier(simd::KernelTier::kScalar);

  const std::size_t sessions = std::max<std::size_t>(1, offered);
  EventLoop loop;
  LinkConfig lc;
  lc.bandwidth_bps = 10e9;
  lc.propagation_delay = 10 * kMicrosecond;
  lc.queue_limit = 4096;
  DuplexChannel channel(loop, lc);
  LinkPath ingress(channel.forward);
  LinkPath feedback(channel.reverse);

  sessiond::Sessiond::Config dcfg;
  dcfg.table.shards = 64;
  dcfg.table.max_sessions = 2 * sessions + 16;
  sessiond::Sessiond daemon(loop, dcfg);
  const std::uint32_t peer = daemon.bind(ingress);

  const RecordSchema schema = int_array_schema();
  std::shared_ptr<const presentation::PresentationPlan> plan =
      presentation::cached_plan(schema, TransferSyntax::kXdr);
  const bool fused = !p.unfuse;

  buf::BufferPool pool;
  const unsigned workers = p.shrink ? 0 : opt_.engine_workers;
  std::unique_ptr<engine::Engine> eng;
  if (opt_.engine_workers > 0) {
    engine::EngineConfig ecfg;
    ecfg.workers = workers;
    eng = std::make_unique<engine::Engine>(ecfg);
  }

  // Receive-only flows: heartbeats pushed past the horizon (the plane, not
  // the timers, is the workload), watchdog off.
  alf::SessionConfig base;
  base.syntax = TransferSyntax::kXdr;
  base.checksum = ChecksumKind::kInternet;
  base.progress_interval = 3600 * kSecond;
  base.stall_timeout = 0;

  AppConsumer app;
  app.plan = plan.get();
  app.fused = fused;
  app.copy_stage = p.copy_stage;

  std::vector<const alf::AlfReceiver*> flows;
  sessiond::ReceiverFactoryOptions fopts;
  if (eng) {
    fopts.engine = eng.get();
    fopts.engine_harvest_delay = kEngineHarvestDelay;
  }
  fopts.rx_pool = &pool;
  if (fused) fopts.presentation = plan;
  fopts.configure = [&](const sessiond::FlowId&, alf::AlfReceiver& rx) {
    flows.push_back(&rx);
    rx.set_on_adu_chain([&app](AduChain&& c) { app.consume(std::move(c)); });
  };
  daemon.set_factory(sessiond::alf_receiver_factory(loop, feedback, base, fopts));

  obs::MetricsRegistry reg;
  reg.add("sessiond", daemon);
  obs::TelemetryHub hub(&loop, reg);
  std::vector<std::string> slo_failures;
  const auto watch = [&](const char* metric, const char* label) {
    obs::SloWatch w;
    w.metric = metric;
    w.threshold = 1.0;
    hub.add_watch(w, [&slo_failures, label](const obs::SloEvent&) {
      slo_failures.push_back(label);
    });
  };
  watch("sessiond.dispatch.frames_unroutable", "dispatch_unroutable");
  watch("sessiond.dispatch.creates_rejected", "admission_rejected");

  // ---- pre-encode every frame (the "remote senders") into the shared rx
  // pool, where a NIC would have written it: this generation cost is
  // identical across perturbations and excluded from the timing.
  constexpr std::size_t kFragLen = 1400;
  std::vector<buf::Slice> frames;
  std::vector<std::uint32_t> next_adu(sessions + 1, 1);
  Record record;
  record.emplace_back(std::vector<std::int32_t>{});
  for (std::size_t i = 0; i < opt_.total_adus; ++i) {
    const std::uint16_t session = static_cast<std::uint16_t>(1 + i % sessions);
    record[0] = adu_ints(opt_.seed, i, opt_.ints_per_adu);
    ByteBuffer wire = presentation::plan_encode(*plan, record).value();
    alf::DataFragment f;
    f.session = session;
    f.adu_id = next_adu[session]++;
    f.name = generic_name(i);
    f.syntax = TransferSyntax::kXdr;
    f.checksum_kind = ChecksumKind::kInternet;
    f.adu_len = static_cast<std::uint32_t>(wire.size());
    f.adu_checksum = compute_checksum(ChecksumKind::kInternet, wire.span());
    for (std::size_t off = 0; off < wire.size(); off += kFragLen) {
      f.frag_off = static_cast<std::uint32_t>(off);
      f.payload = wire.subspan(off, std::min(kFragLen, wire.size() - off));
      const ByteBuffer encoded = alf::encode_fragment(f);
      buf::Slice frame{pool.alloc(encoded.size()), 0, encoded.size()};
      copy_bytes(frame.mutable_bytes().data(), encoded.data(), encoded.size());
      frames.push_back(std::move(frame));
    }
  }

  hub.start();
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t dispatched = 0;
  for (const buf::Slice& frame : frames) {
    if (p.copy_ingress) {
      // Unpublished: the receiver sees bytes outside any segment it may
      // reference, so it copies each fragment into its pool.
      daemon.dispatcher().dispatch(peer, frame.bytes());
    } else {
      buf::IngressFrame scope(frame);
      daemon.dispatcher().dispatch(peer, frame.bytes());
    }
    if (++dispatched % 512 == 0) loop.run_until(loop.now() + 5 * kMillisecond);
  }
  // Drain: deliveries ride the engine harvest pump's sim timers.
  for (int i = 0; i < 200 && app.cost.operations + app.decode_failures <
                                opt_.total_adus;
       ++i) {
    loop.run_until(loop.now() + 10 * kMillisecond);
  }
  if (eng) {
    eng->wait_all();
    loop.run_until(loop.now() + 10 * kMillisecond);
  }
  const double wall = wall_seconds(t0);
  hub.stop();

  alf::ReceiverStats total{};
  obs::CostAccount manip, reassembly;
  for (const alf::AlfReceiver* rx : flows) {
    const alf::ReceiverStats& s = rx->stats();
    total.adus_delivered += s.adus_delivered;
    total.payload_bytes_delivered += s.payload_bytes_delivered;
    total.adus_presentation_fused += s.adus_presentation_fused;
    total.adus_engine_offloaded += s.adus_engine_offloaded;
    total.adus_chain_delivered += s.adus_chain_delivered;
    total.fragments_pool_copied += s.fragments_pool_copied;
    total.fragments_zero_copy += s.fragments_zero_copy;
    manip.merge(rx->manipulation_cost());
    reassembly.merge(rx->reassembly_cost());
  }

  RunMeasurement m;
  m.payload_bytes = static_cast<double>(total.payload_bytes_delivered);
  m.cost_units = wall;
  m.output_hash = app.decode_failures == 0 ? app.hash : app.hash ^ app.decode_failures;
  m.slo_failures = std::move(slo_failures);
  put(m.ledger, "host_copied_bytes",
      static_cast<double>((manip.word_stores + reassembly.word_stores) * 8));
  put(m.ledger, "memory_passes",
      static_cast<double>(manip.memory_passes + reassembly.memory_passes +
                          app.cost.memory_passes));
  put(m.ledger, "app_bytes_touched", static_cast<double>(app.cost.bytes_touched));
  put(m.ledger, "app_load_bytes", static_cast<double>(app.cost.word_loads * 8));
  put(m.ledger, "app_store_bytes", static_cast<double>(app.cost.word_stores * 8));
  put(m.ledger, "adus_delivered", static_cast<double>(total.adus_delivered));
  put(m.ledger, "payload_bytes_delivered",
      static_cast<double>(total.payload_bytes_delivered));
  put(m.ledger, "adus_presentation_fused",
      static_cast<double>(total.adus_presentation_fused));
  put(m.ledger, "adus_engine_offloaded",
      static_cast<double>(total.adus_engine_offloaded));
  put(m.ledger, "adus_chain_delivered",
      static_cast<double>(total.adus_chain_delivered));
  put(m.ledger, "fragments_pool_copied",
      static_cast<double>(total.fragments_pool_copied));
  put(m.ledger, "sessions", static_cast<double>(flows.size()));
  return m;
}

}  // namespace ngp::perf
