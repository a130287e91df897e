// A single end-to-end simulation run: network + protocols (as paired
// observers) + workload + mobility, with result extraction and optional
// consistency verification.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/harness.hpp"
#include "des/sharded.hpp"
#include "des/simulator.hpp"
#include "des/trace.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "sim/config.hpp"
#include "sim/faults.hpp"
#include "storage/data_plane.hpp"
#include "sim/mobility.hpp"
#include "sim/workload.hpp"

namespace mobichk::sim {

/// What to run and what to measure.
struct ExperimentOptions {
  /// Protocols evaluated as paired observers; slot 0's piggyback rides
  /// the wire. Defaults to the paper's TP, BCS, QBC.
  std::vector<core::ProtocolKind> protocols{core::ProtocolKind::kTp, core::ProtocolKind::kBcs,
                                            core::ProtocolKind::kQbc};
  core::ProtocolParams params;

  /// Checkpoint data plane (stable-storage service queues, migration on
  /// handoff, recovery-byte fetch). Off by default: the run then has no
  /// DataPlane object at all, keeping traces bit-identical and the hot
  /// path allocation-free. Its sizing (full_state_bytes, dirty_rate,
  /// incremental) prices every slot's storage_* stats either way.
  storage::DataPlaneConfig data_plane;

  bool verify_consistency = false;    ///< Run the orphan oracle after the run.

  des::QueueKind queue_kind = des::QueueKind::kBinaryHeap;
  bool collect_trace_hash = false;    ///< Fold the run's trace into a hash (replay tests).

  /// Spatial shards for the conservative parallel engine. 1 (the default)
  /// runs the classic sequential loop with zero sharding machinery.
  /// Values > 1 are clamped to the MSS-cell count; the merged run is
  /// bit-identical to shards=1 (same trace hash, same FigureResult).
  /// Sharded runs are incompatible with observers and with
  /// duplicate-exposing network configs (both stay sequential-only).
  u32 shards = 1;

  /// Non-owning observability hookup (nullptr = off, the default: the
  /// run is then bit-identical and allocation-free on the hot path).
  /// Must outlive the Experiment. Not shareable across threads.
  obs::RunObserver* observer = nullptr;

  /// Non-owning host-time profiler (nullptr = off: no clock reads, no
  /// allocations, traces bit-identical). Unlike observers the profiler
  /// works sharded — each shard writes its own lane. Must outlive the
  /// Experiment; its prof.* samples are appended to RunResult::metrics.
  obs::Profiler* profiler = nullptr;

  /// Non-owning trace consumer (nullptr = off): receives the run's trace
  /// records in merged order (sequential or sharded), next to the hash
  /// when collect_trace_hash is set. Must outlive the Experiment.
  des::TraceSink* trace_sink = nullptr;
};

/// Per-protocol outcome of one run.
struct ProtocolRunStats {
  std::string name;
  core::ProtocolKind kind = core::ProtocolKind::kBcs;
  u64 total = 0;        ///< All checkpoints including initial.
  u64 n_tot = 0;        ///< The paper's metric: basic + forced.
  u64 basic = 0;
  u64 forced = 0;
  u64 initial = 0;
  u64 max_index = 0;
  u64 piggyback_bytes = 0;     ///< Control info this protocol puts on the wire (encoded).
  u64 piggyback_dense_bytes = 0;  ///< Dense-equivalent control info cost.
  u64 control_messages = 0;    ///< Dedicated control messages (coordinated only).
  /// Checkpoint-storage traffic (paper §2.2), priced from the log with
  /// ExperimentOptions::data_plane's sizing (core::storage_traffic).
  u64 storage_wireless_bytes = 0;
  u64 storage_wired_bytes = 0;
  u64 storage_transfers = 0;
  u64 lines_checked = 0;       ///< Recovery lines sampled by the oracle.
  u64 orphans_found = 0;       ///< Must be 0 for a sound protocol.
  /// TP: deliveries whose per-pair delta arrived out of sequence
  /// (core::TpProtocol::delta_reorders()); 0 for the other protocols.
  u64 delta_reorders = 0;
};

/// Aggregate outcome of one run.
struct RunResult {
  SimConfig cfg;
  net::NetworkStats net;
  std::vector<ProtocolRunStats> protocols;
  u64 events_executed = 0;
  u64 workload_ops = 0;
  f64 wall_seconds = 0.0;  ///< Host wall-clock time the run took (not part of the deterministic result).
  u64 trace_hash = 0;
  des::SimInvariants invariants;  ///< Engine self-check counters for the run.
  bool invariants_ok = true;      ///< Scheduled/executed/pending ledger reconciled.
  u32 shards = 1;                 ///< Shard count the run actually used.
  u64 sync_rounds = 0;            ///< Barrier windows (0 when sequential).
  /// Barrier-merge picks whose time another shard's journal head shared,
  /// so the shard index decided their order (des/shard_merge.hpp). The
  /// sharded engine matches the sequential one only while this reads 0;
  /// always 0 when sequential.
  u64 cross_shard_ties = 0;
  f64 barrier_stall_seconds = 0.0;  ///< Coordinator wait at barriers (wall, non-deterministic).
  /// Metric snapshot (registration order); empty when no observer was
  /// attached.
  std::vector<obs::MetricSample> metrics;
  /// Executed-recovery totals; all-zero when cfg.faults is disabled.
  CrashRunStats recovery;
  /// Checkpoint data-plane totals; meaningful (and serialized) only when
  /// the subsystem was enabled for the run.
  bool data_plane_enabled = false;
  storage::DataPlaneStats data_plane;

  const ProtocolRunStats& by_name(const std::string& name) const;
};

/// Owns all the moving parts of one run. Use run_experiment() unless you
/// need post-run access to the logs (recovery benches, property tests).
class Experiment {
 public:
  Experiment(SimConfig cfg, ExperimentOptions opts);

  /// Runs the simulation to cfg.sim_length and fills result().
  void run();

  const RunResult& result() const noexcept { return result_; }

  des::Simulator& simulator() noexcept { return *sim_; }
  /// The parallel engine; nullptr when the run is sequential (shards<=1).
  des::ShardedSimulator* sharded() noexcept { return sharded_.get(); }
  net::Network& network() noexcept { return *net_; }
  core::ProtocolHarness& harness() noexcept { return *harness_; }
  WorkloadDriver& workload() noexcept { return *workload_; }
  /// The crash engine; nullptr when cfg.faults is disabled.
  const CrashDriver* faults() const noexcept { return crash_.get(); }
  /// The checkpoint data plane; nullptr when opts.data_plane is off.
  storage::DataPlane* data_plane() noexcept { return data_plane_.get(); }
  const core::CheckpointLog& log(usize slot) const { return harness_->log(slot); }
  core::ProtocolKind kind(usize slot) const { return opts_.protocols.at(slot); }

 private:
  /// ShardHooks impl: at every barrier, drains the network's cross-shard
  /// state (final message ids, egress legs, trace records), then the
  /// harness's delivery journals, then the data plane's.
  class WindowMerger final : public des::ShardHooks {
   public:
    WindowMerger(net::Network& net, core::ProtocolHarness& harness,
                 storage::DataPlane* data_plane)
        : net_(net), harness_(harness), data_plane_(data_plane) {}
    void on_window_merge(des::Time) override {
      net_.merge_window();
      harness_.merge_window();
      // After the harness: data-plane journals were filled by checkpoint
      // and handoff hooks this window; processing them schedules
      // completion events on the (currently parked) main queue.
      if (data_plane_ != nullptr) data_plane_->merge_window();
    }

   private:
    net::Network& net_;
    core::ProtocolHarness& harness_;
    storage::DataPlane* data_plane_;
  };

  void verify_slot(usize slot, ProtocolRunStats& stats);

  SimConfig cfg_;
  ExperimentOptions opts_;
  u32 shards_ = 1;  ///< Effective shard count (clamped to n_mss).
  std::unique_ptr<des::HashSink> hash_sink_;
  des::TeeSink tee_;         ///< Hash + opts.trace_sink when both are set.
  des::NullSink null_sink_;  ///< Mux downstream when nothing is collected.
  std::unique_ptr<des::Simulator> sim_;
  std::unique_ptr<des::ShardedSimulator> sharded_;
  std::unique_ptr<des::ShardTraceMux> mux_;
  std::unique_ptr<WindowMerger> merger_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<storage::DataPlane> data_plane_;
  std::unique_ptr<core::ProtocolHarness> harness_;
  std::unique_ptr<WorkloadDriver> workload_;
  std::unique_ptr<MobilityDriver> mobility_;
  std::unique_ptr<CrashDriver> crash_;
  RunResult result_;
  bool ran_ = false;
};

/// Convenience: construct, run, return the result.
RunResult run_experiment(const SimConfig& cfg, const ExperimentOptions& opts = {});

}  // namespace mobichk::sim
