// config.h — the observability off-switch ladder.
//
// Recording must never tax the datapath it measures, so every recorder in
// ngp::obs (today the flight recorder, obs/flight.h) has three off-switches:
//   * Compile-time: the NGP_OBS CMake option (default ON) defines
//     NGP_OBS_ENABLED; with it OFF every recorder method compiles to an
//     empty inline body — call sites need no #ifdefs and produce no code.
//   * Run-time: a recorder constructs disabled; an enabled build with
//     recording off costs one branch per event.
//   * Detached: components accept a nullable recorder pointer (null = not
//     recorded), gated by one null-safe helper.
// The metrics registry and the §4 cost ledger are snapshot-on-demand and
// analytic, so they stay available in both configurations.
#pragma once

#include "util/sim_clock.h"

#ifndef NGP_OBS_ENABLED
#define NGP_OBS_ENABLED 1
#endif

namespace ngp::obs {

/// True when the recording hot path is compiled in (NGP_OBS=ON).
inline constexpr bool kEnabled = NGP_OBS_ENABLED != 0;

/// A recorder's sim-time source, called with the context pointer the
/// recorder was built with (an EventLoop, a bench's step counter, ...).
using ClockFn = SimTime (*)(const void*);

/// Adapts an EventLoop (or anything with .now()) to a ClockFn.
template <typename Loop>
SimTime loop_clock(const void* ctx) {
  return static_cast<const Loop*>(ctx)->now();
}

}  // namespace ngp::obs
