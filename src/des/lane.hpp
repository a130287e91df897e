// Where code runs: the one execution-context model of a run.
//
// A run executes on lanes. Lane 0 is the coordinator, which is the whole
// run when it is sequential; lane 1+s is shard s of a sharded run
// (des/sharded.hpp), and the sharded executor installs it around each
// window. Every module that keeps per-context state (network counters
// and in-flight pools, per-slot piggyback bytes, snapshot arenas,
// workload counters, profiler accumulators) keeps it in one lane-indexed
// vector, which a sequential run sizes to 1, so a lookup is the same
// `state[des::lane()]` at every shard count.
//
// Header-only: obs/ reads the lane too, and mobichk_obs links nothing
// from mobichk_des.
#pragma once

#include "des/types.hpp"

namespace mobichk::des {

class Simulator;

/// Bytes that end each lane's state in a lane-indexed vector, so that no
/// two lanes' fields share a cache line and shard threads do not
/// false-share. Padding rather than an alignas(64) element type: that
/// makes every such vector allocate through aligned new, which glibc
/// serves from a slower path than plain malloc, and every Experiment
/// builds several of these vectors, sequential or not.
inline constexpr usize kLanePadBytes = 64;

/// The calling thread's execution context.
struct Lane {
  u32 index = 0;             ///< 0 = coordinator or sequential run, 1+s = shard s.
  Simulator* sim = nullptr;  ///< Shard s's simulator on lane 1+s; null on lane 0.
};

/// Installed by the sharded executor for the length of each window;
/// {0, nullptr} at every other time and on every other thread.
inline constinit thread_local Lane tls_lane{};

/// The calling thread's lane index.
inline u32 lane() noexcept { return tls_lane.index; }

/// The simulator the calling lane runs: the shard's inside a window,
/// `main` (the run's coordinator simulator) on lane 0.
inline Simulator& lane_sim(Simulator& main) noexcept {
  return tls_lane.sim != nullptr ? *tls_lane.sim : main;
}

}  // namespace mobichk::des
