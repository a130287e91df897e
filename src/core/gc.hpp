// Checkpoint garbage collection for MSS stable storage.
//
// MSS storage is finite; once a recovery line is *stable* — every host
// has taken a checkpoint with sequence number >= M — no conceivable
// rollback needs anything older than the line's members: the maximum
// consistent cut below any future failure dominates the stable line
// componentwise, so everything strictly older than a member is dead.
//
// This module analyses a run's checkpoint log: what is the current
// stable index, which checkpoints are collectible, and how storage
// occupancy would have evolved with GC running continuously — the
// operational complement to the paper's storage discussion (§2.1 a).
#pragma once

#include <vector>

#include "core/checkpoint_log.hpp"
#include "core/recovery.hpp"
#include "des/types.hpp"

namespace mobichk::core {

/// Snapshot of what GC can reclaim at the end of a run.
struct GcAnalysis {
  /// Largest index every host has reached (the stable line's index).
  u64 stable_index = 0;
  /// The stable recovery line itself (never has virtual members).
  GlobalCheckpoint stable_line;
  /// Per host: checkpoints strictly older than its line member.
  std::vector<u64> collectible_per_host;
  /// Per MSS: collectible checkpoints stored there.
  std::vector<u64> collectible_per_mss;

  u64 total_collectible() const noexcept;
  u64 total_retained(const CheckpointLog& log) const;
};

/// Analyses GC for a finished run. `rule` is the protocol's line rule
/// (QBC: kLastEqual). `n_mss` sizes the per-MSS breakdown.
GcAnalysis analyze_gc(const CheckpointLog& log, IndexLineRule rule, u32 n_mss);

/// One point of the storage-occupancy timeline.
struct OccupancySample {
  des::Time time = 0.0;
  u64 live_without_gc = 0;  ///< Checkpoints ever taken up to `time`.
  u64 live_with_gc = 0;     ///< Checkpoints a continuous GC would retain.
};

/// Upload bytes a GC pass reclaims, per the stable-line analysis: the
/// collectible records of `log` priced under `sizing` (see upload_bytes).
u64 gc_reclaimable_bytes(const GcAnalysis& gc, const CheckpointLog& log,
                         const storage::DataPlaneConfig& sizing);

/// Replays the run at `samples` evenly spaced instants and reports how
/// many checkpoints stable storage holds with and without continuous GC.
std::vector<OccupancySample> gc_occupancy_timeline(const CheckpointLog& log, IndexLineRule rule,
                                                   des::Time horizon, usize samples);

}  // namespace mobichk::core
