// The crash-scenario engine: injects failures mid-run and executes
// rollback-recovery end to end (the paper's §6 future work, grounded in
// the log-based roll-forward literature — see docs/model.md "Executed
// recovery").
//
// A failure event kills its victims without warning (no checkpoint, no
// control message). The engine then
//  1. snapshots the failure cut (every host's event position),
//  2. builds the recovery line for *every* protocol slot — index_rollback
//     for the index-based protocols, the generic orphan fixpoint for the
//     rest — so each protocol's rollback distance is measured against the
//     same shared trace,
//  3. physically executes slot 0's line: every host the line forces onto
//     a stored checkpoint is taken down, restores its image (per-cell
//     serialized transfers), replays its logged messages, and rejoins at
//     its planned ready time (core::plan_recovery),
//  4. records measured recovery time, rollback distance, orphan cascades
//     and replayed messages, reconciled against estimate_recovery_time
//     and the online RecoveryLineTracker.
//
// Like ckpt_latency, executed failures perturb the trace, so crash runs
// are meaningful as single-protocol studies; multi-protocol runs still
// yield valid per-slot rollback measurements at each failure cut.
#pragma once

#include <vector>

#include "core/factory.hpp"
#include "core/harness.hpp"
#include "core/replay.hpp"
#include "des/event.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "sim/config.hpp"
#include "sim/mobility.hpp"
#include "sim/workload.hpp"
#include "storage/data_plane.hpp"

namespace mobichk::sim {

/// Everything measured about one executed crash + recovery. Per-slot
/// vectors are parallel to the experiment's protocol list.
struct CrashRecord {
  f64 t = 0.0;  ///< Failure instant.
  CrashMode mode = CrashMode::kNone;
  std::vector<net::HostId> victims;    ///< Hosts the failure killed.
  u64 line_index = 0;                  ///< Slot 0 line index (index protocols).
  u64 hosts_rolled_back = 0;           ///< Slot 0: stored members restored.
  u64 hosts_taken_down = 0;            ///< Victims + rolled-back survivors.
  u64 undone_events = 0;               ///< Slot 0 rollback distance.
  u64 replayed_messages = 0;           ///< Logged deliveries re-consumed.
  u64 checkpoints_discarded = 0;       ///< Slot 0, summed over hosts.
  u64 orphan_iterations = 0;           ///< Fixpoint passes (domino visibility).
  f64 planned_recovery = 0.0;          ///< plan_recovery completion (pipelined).
  f64 estimated_recovery = 0.0;        ///< estimate_recovery_time total (barriers).
  f64 actual_recovery = 0.0;           ///< Simulated outage of the slowest host
                                       ///< (0 until the last restore fires).
  std::vector<u64> undone_per_host;    ///< Slot 0, per host.
  std::vector<u64> slot_undone;        ///< Rollback distance per protocol slot.
  std::vector<u64> slot_line_index;    ///< Line index per slot (0 for generic).
  /// Online tracker committed index per slot at crash time (~0 = slot has
  /// no tracker or causal monitoring is off).
  std::vector<u64> tracker_line_index;
  u32 pending_restores = 0;            ///< Hosts still down (bookkeeping).
};

/// Run-level recovery totals (exported via RunResult / report JSON).
struct CrashRunStats {
  u64 crashes_executed = 0;
  u64 crashes_skipped = 0;  ///< Fired with no live victim available.
  u64 hosts_crashed = 0;
  u64 hosts_rolled_back = 0;
  u64 undone_events = 0;
  u64 replayed_messages = 0;
  u64 checkpoints_discarded = 0;
  f64 total_recovery_time = 0.0;  ///< Sum of completed actual_recovery.
  f64 max_recovery_time = 0.0;
  f64 total_planned = 0.0;
  f64 total_estimated = 0.0;
};

/// Schedules kCrash events through the DES kernel, executes the recovery
/// they trigger, and schedules the matching kRecover events.
class CrashDriver final : public des::EventTarget {
 public:
  /// `workload` / `mobility` / `observer` may be null (tests). `kinds`
  /// must be parallel to the harness's protocol slots.
  /// `data_plane` (may be null) makes each restore *fetch* its recovery
  /// image: the byte transfer from the placement MSS extends the host's
  /// ready time with storage-read queueing plus wired transfer time.
  CrashDriver(des::Simulator& sim, net::Network& net, core::ProtocolHarness& harness,
              const SimConfig& cfg, std::vector<core::ProtocolKind> kinds,
              WorkloadDriver* workload, MobilityDriver* mobility, obs::RunObserver* observer,
              storage::DataPlane* data_plane = nullptr);

  /// Schedules the first failure at faults.first_crash_at, or mid-run
  /// (sim_length / 2) when that is 0. Call after net.start().
  void start();

  /// Typed-event dispatch: kCrash fires a failure (no operands); kRecover
  /// brings one host back (a = host, b = crash-record index).
  void on_event(const des::EventPayload& payload) override;

  const CrashRunStats& stats() const noexcept { return stats_; }
  const std::vector<CrashRecord>& records() const noexcept { return records_; }

 private:
  std::vector<net::HostId> pick_victims();
  void execute_crash();
  void finish_recovery(net::HostId host, u64 record_idx);
  void schedule_next_crash();

  des::Simulator& sim_;
  net::Network& net_;
  core::ProtocolHarness& harness_;
  const SimConfig& cfg_;
  std::vector<core::ProtocolKind> kinds_;
  WorkloadDriver* workload_;
  MobilityDriver* mobility_;
  obs::RunObserver* observer_;
  storage::DataPlane* data_plane_;
  des::RngStream rng_;
  CrashRunStats stats_;
  std::vector<CrashRecord> records_;
  std::vector<bool> down_;  ///< Hosts currently in an injected outage.
  u64 scheduled_ = 0;       ///< Crash events scheduled so far.
};

}  // namespace mobichk::sim
