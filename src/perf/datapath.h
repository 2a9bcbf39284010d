// datapath.h — the real workloads behind the self-diagnosing harness.
//
// Two perf::Workload implementations over the repo's actual stack, both
// supporting the full single-operator perturbation registry the harness
// attributes against (perf/harness.h):
//
//   DatapathWorkload — ONE association end to end: the sender marshals
//   XDR int-array records through a compiled presentation plan straight
//   into wire staging (send_record), encrypts, fragments and paces over a
//   simulated gigabit link into a pooled receive path; the receiver
//   reassembles by reference, runs the fused decrypt+verify(+byteswap)
//   pass on the engine worker pool, and delivers chains the application
//   decodes and folds into an order-independent output hash. `offered`
//   is the burst size: ADUs handed to the sender before each drain.
//
//   SessiondPlaneWorkload — the server shape: a sharded session plane
//   (ngp::sessiond) terminating many flows behind one dispatcher, fed
//   pre-encoded record fragments that sit in the shared rx pool, as if
//   the NIC had written them there. `offered` is the number of concurrent
//   sessions the fixed ADU budget round-robins across.
//
// Perturbations (each toggles exactly one operator; everything else,
// including the seeded application data, is bit-identical):
//   force_scalar_kernels   simd::set_active_tier(kScalar) for the run
//   unfuse_presentation    no plan fused into stage 2; the application
//                          pays the separate decode/transform pass
//   copy_on_ingress        frames reach the receiver outside any pool
//                          segment, so every placement is one copy
//   shrink_engine_workers  engine worker pool -> 0 (inline at submit)
//   synthetic_per_adu_copy an extra full copy pass at delivery
//
// Every run's RunMeasurement carries the §4 ledger (exact per seed) and
// the delivered-output hash (must be invariant under every perturbation —
// the workload's self-check that a perturbation degrades HOW, not WHAT).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perf/harness.h"

namespace ngp::perf {

// The five registry names (shared by both workloads and the holds in
// bench_diagnose).
inline constexpr const char* kPerturbScalarKernels = "force_scalar_kernels";
inline constexpr const char* kPerturbUnfusePresentation = "unfuse_presentation";
inline constexpr const char* kPerturbCopyOnIngress = "copy_on_ingress";
inline constexpr const char* kPerturbShrinkEngineWorkers = "shrink_engine_workers";
inline constexpr const char* kPerturbSyntheticCopy = "synthetic_per_adu_copy";

struct DatapathOptions {
  std::uint64_t seed = 1;
  std::size_t total_adus = 192;      ///< ADU budget per run
  std::size_t ints_per_adu = 4096;   ///< record payload: 16 KiB + prefix
  unsigned engine_workers = 2;       ///< 0 = engine off (drops the shrink op)
  /// Collect a FlightRecorder per-stage latency breakdown on the baseline
  /// run (NGP_OBS builds; empty JSON otherwise).
  bool collect_flight = false;

  static DatapathOptions smoke(std::uint64_t seed) {
    DatapathOptions o;
    o.seed = seed;
    o.total_adus = 64;
    o.ints_per_adu = 1024;
    return o;
  }
};

/// One full sender -> link -> receiver association (see file comment).
class DatapathWorkload final : public Workload {
 public:
  explicit DatapathWorkload(DatapathOptions opt) : opt_(opt) {}

  std::string name() const override { return "datapath"; }
  std::vector<PerturbationInfo> perturbations() const override;
  RunMeasurement run(std::size_t offered, const std::string& perturbation) override;

  /// Baseline FlightRecorder latency breakdown (FlightTable::to_json) from
  /// the most recent unperturbed run, when collect_flight was set.
  const std::string& last_flight_json() const noexcept { return flight_json_; }

  /// Flip flight collection AFTER diagnose(): recording during measured
  /// runs would bias the baseline against the unrecorded perturbed runs,
  /// so bench_diagnose harvests the breakdown from one extra run instead.
  void set_collect_flight(bool v) noexcept { opt_.collect_flight = v; }

  /// The exact §4 charge the synthetic copy stage adds per run (for the
  /// exact-bytes hold in bench_diagnose): one store pass over every
  /// delivered payload byte, in word-rounded bytes.
  std::uint64_t synthetic_copy_store_bytes() const noexcept;

 private:
  DatapathOptions opt_;
  std::string flight_json_;
};

struct SessiondPlaneOptions {
  std::uint64_t seed = 1;
  std::size_t total_adus = 256;     ///< ADU budget spread across sessions
  std::size_t ints_per_adu = 1024;
  unsigned engine_workers = 2;

  static SessiondPlaneOptions smoke(std::uint64_t seed) {
    SessiondPlaneOptions o;
    o.seed = seed;
    o.total_adus = 96;
    o.ints_per_adu = 512;
    return o;
  }
};

/// The many-session plane under the same registry: pre-encoded record
/// fragments dispatched through sessiond into factory-created receivers.
class SessiondPlaneWorkload final : public Workload {
 public:
  explicit SessiondPlaneWorkload(SessiondPlaneOptions opt) : opt_(opt) {}

  std::string name() const override { return "sessiond_plane"; }
  std::vector<PerturbationInfo> perturbations() const override;
  RunMeasurement run(std::size_t offered, const std::string& perturbation) override;

 private:
  SessiondPlaneOptions opt_;
};

}  // namespace ngp::perf
