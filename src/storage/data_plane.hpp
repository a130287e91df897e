// The checkpoint data plane: every checkpoint gets a size, every byte a
// cost, and every transfer a completion event through the typed kernel.
//
// The paper's analysis counts checkpoints (N_tot); this subsystem prices
// them. Three models compose:
//
//  1. Size — full snapshots of S bytes, or dirty-delta incremental
//     checkpoints of S * (1 - exp(-omega * dt)) bytes, driven by the time
//     elapsed since the host's previous checkpoint. The caller prices each
//     checkpoint from the host's previous record in the checkpoint log
//     (core::upload_bytes) and hands the plane its bytes, so the plane
//     and the per-protocol storage totals share one account;
//     dirtied_bytes() below is the one copy of the dirtying law.
//  2. Service — uploads cross the wireless link and then queue on the
//     current MSS's StableStorage device; completion becomes a real
//     EventKind::kCheckpointTransfer event on the main simulator queue
//     (the globally ordered home sharded.hpp reserves for
//     checkpoint-transfer timers).
//  3. Placement — a host's recovery bytes (its base image) live at one
//     MSS. On handoff the image either stays put (kNone — locality
//     degrades as the host drifts, the distance-based-recovery story),
//     or migrates with live-VM-style phase accounting: kPreCopy runs
//     iterative copy rounds while the host executes and stalls only for
//     the final stop-and-copy of the residual dirty set; kPostCopy flips
//     placement immediately (one control round-trip of stall) and
//     back-fills the image in the background.
//
// Executed recovery *fetches* those bytes: CrashDriver asks
// recovery_fetch() for the extra seconds a crashed host spends pulling
// its image across `hops` wired legs and through the storage read queue,
// so actual recovery time grows with locality and contention.
//
// Shard discipline: the plane keeps no per-host size state; everything
// it does — FIFO admission, placement moves, aggregate stats, event
// scheduling — runs at once on lane 0 and is journaled per shard lane
// during windows, then processed at the barrier in merged
// (time, lane, index) order, which reproduces the sequential processing
// order bit-identically. Completion times always exceed the op time by
// at least one network latency >= the lookahead, so barrier-side
// scheduling can never regress the main clock. With the
// plane disabled the object simply does not exist (branch-on-null at
// every call site): traces and allocation behavior are untouched.
#pragma once

#include <memory>
#include <vector>

#include "des/event.hpp"
#include "des/simulator.hpp"
#include "des/trace.hpp"
#include "net/ids.hpp"
#include "net/topology.hpp"
#include "storage/stable_storage.hpp"

namespace mobichk::obs {
class Timeline;
}
namespace mobichk::net {
class Network;
}

namespace mobichk::storage {

/// What happens to a host's recovery bytes when it crosses a cell edge.
enum class MigrationStrategy : u8 {
  kNone = 0,      ///< Bytes stay where written; locality degrades with drift.
  kPreCopy = 1,   ///< Iterative live copy, stall = final stop-and-copy only.
  kPostCopy = 2,  ///< Flip placement now, back-fill in the background.
};

const char* migration_strategy_name(MigrationStrategy strategy) noexcept;
bool parse_migration_strategy(std::string_view name, MigrationStrategy& out) noexcept;

struct DataPlaneConfig {
  bool enabled = false;
  u64 full_state_bytes = 1u << 20;  ///< S: full process image size.
  f64 dirty_rate = 0.01;            ///< omega: state-dirtying rate per tu.
  bool incremental = true;          ///< Dirty-delta uploads (vs full every time).
  StableStorageKind model = StableStorageKind::kContention;
  f64 storage_bandwidth = 1.0e6;   ///< Bytes/tu per MSS stable-storage device.
  f64 wireless_bandwidth = 1.0e5;  ///< Bytes/tu on the MH -> MSS upload link.
  f64 wired_bandwidth = 1.0e6;     ///< Bytes/tu per wired migration/fetch leg.
  MigrationStrategy migration = MigrationStrategy::kPreCopy;
  u32 precopy_rounds = 4;          ///< Max iterative rounds before stop-and-copy.
  f64 precopy_stop_fraction = 0.05;  ///< Stop early once dirty <= fraction * S.

  void validate() const;
  bool operator==(const DataPlaneConfig&) const = default;
};

/// The dirtying law (paper §2.2): bytes of an S-byte image dirtied over
/// `dt` tu at rate omega, ceil(S * (1 - exp(-omega * dt))). Incremental
/// checkpoint uploads and the pre-copy residual both size with it.
u64 dirtied_bytes(u64 full_state_bytes, f64 dirty_rate, f64 dt) noexcept;

/// Aggregate data-plane accounting for one run. All fields are summed in
/// deterministic processing order (coordinator/sequential only).
struct DataPlaneStats {
  u64 checkpoints = 0;       ///< Physical (slot 0) checkpoints priced.
  u64 upload_bytes = 0;      ///< Actual bytes uploaded (incremental-aware).
  u64 full_bytes = 0;        ///< Dense equivalent: S per checkpoint.
  u64 transfers_completed = 0;  ///< kCheckpointTransfer events fired.
  f64 transfer_time = 0.0;   ///< Sum of upload start-to-completion times.
  f64 queue_delay = 0.0;     ///< Storage FIFO waits across all operations.
  u64 migrations = 0;
  u64 migration_bytes = 0;   ///< Total bytes moved between MSSs on handoff.
  f64 migration_copy_time = 0.0;  ///< Background copy time (host keeps running).
  f64 migration_stall = 0.0;      ///< Host-visible stall (stop-and-copy etc).
  u64 locality_samples = 0;  ///< Hop-distance samples (checkpoints + handoffs).
  u64 locality_hops = 0;     ///< Sum of wired hops host -> its recovery bytes.
  u64 fetches = 0;           ///< Recovery-time image fetches.
  u64 fetch_bytes = 0;
  u64 fetch_hops = 0;
  f64 fetch_time = 0.0;      ///< Extra recovery seconds spent fetching bytes.

  f64 mean_locality() const noexcept {
    return locality_samples == 0
               ? 0.0
               : static_cast<f64>(locality_hops) / static_cast<f64>(locality_samples);
  }
};

class DataPlane final : public des::EventTarget {
 public:
  /// `main` must be the coordinator (sequential) simulator; completion
  /// events stay on its queue. `topology` must outlive the plane.
  DataPlane(des::Simulator& main, const net::MssTopology& topology, DataPlaneConfig cfg,
            u32 n_hosts, f64 wireless_latency, f64 wired_latency);

  /// Completion trace records (kStorageWrite / kStorageTransfer) go here.
  void set_trace_sink(des::TraceSink* sink) noexcept { sink_ = sink; }
  /// Probe events for transfer slices (observed sequential runs only).
  void set_timeline(obs::Timeline* timeline) noexcept { timeline_ = timeline; }
  /// When set, wired migration/fetch legs are accounted as bulk traffic
  /// on the network's stats.
  void set_network(net::Network* network) noexcept { network_ = network; }

  /// Attaches the host-time profiler (nullptr = off): every data-plane
  /// entry point accumulates into prof.storage on the executing lane.
  void set_profiler(obs::Profiler* prof) noexcept { prof_ = prof; }

  /// Uploads one physical checkpoint of `host`, `bytes` long, to its
  /// current MSS. Shard-safe: the op is journaled.
  void on_checkpoint(net::HostId host, net::MssId mss, des::Time now, u8 ckpt_kind, u64 bytes);

  /// Handoff hook: maybe migrates the host's recovery bytes. Shard-safe.
  void on_handoff(net::HostId host, net::MssId from, net::MssId to, des::Time now);

  /// Extra seconds host `host`, restarting in cell `at_mss`, spends
  /// fetching its recovery image (storage read queue + wired legs).
  /// Coordinator-context only (CrashDriver runs on the main queue).
  des::Time recovery_fetch(net::HostId host, net::MssId at_mss, des::Time now);

  /// Adds one journal lane per shard; call before the first shard window.
  void enable_sharding(u32 n_shards);
  /// Drains the journals in merged (time, lane, index) order. Called on
  /// the coordinator at every window barrier.
  void merge_window();
  /// Journal merges that broke an equal-time tie by shard index
  /// (des::merge_shard_journals). 0 in sequential runs.
  u64 cross_shard_ties() const noexcept { return cross_shard_ties_; }

  /// Transfer-completion dispatch (EventKind::kCheckpointTransfer).
  void on_event(const des::EventPayload& payload) override;

  const DataPlaneStats& stats() const noexcept { return stats_; }
  const StableStorage& stable_storage() const noexcept { return *storage_; }
  /// Where `host`'s recovery bytes currently live (kNoMss before its
  /// first checkpoint).
  net::MssId placement(net::HostId host) const { return placement_.at(host); }
  const DataPlaneConfig& config() const noexcept { return cfg_; }

  /// Transfer sub-kinds (EventPayload::sub and trace `b` operand).
  static constexpr u8 kSubUpload = 0;
  static constexpr u8 kSubMigration = 1;
  static constexpr u8 kSubFetch = 2;

 private:
  /// Journaled op: kind 0 = checkpoint (from = current MSS, bytes = upload
  /// size), kind 1 = handoff (from -> to).
  struct PendingOp {
    des::Time t = 0.0;
    net::HostId host = 0;
    net::MssId from = 0;
    net::MssId to = 0;
    u64 bytes = 0;
    u8 kind = 0;
    u8 ckpt_kind = 0;
  };

  /// One lane's journal; lane 0 processes its ops at once.
  struct alignas(64) Journal {
    std::vector<PendingOp> ops;
  };

  /// An in-flight transfer; completion events carry its pool index, so
  /// the payload stays POD and the full start context survives to the
  /// completion trace. Slots recycle through a free list.
  struct Transfer {
    net::HostId host = 0;
    net::MssId mss = 0;
    u64 bytes = 0;
    des::Time start = 0.0;
    u8 sub = 0;
  };

  void enqueue_or_process(const PendingOp& op);
  void process(const PendingOp& op);
  void process_checkpoint(const PendingOp& op);
  void process_handoff(const PendingOp& op);
  void migrate(net::HostId host, net::MssId to, des::Time now);
  void sample_locality(net::HostId host, net::MssId host_at);
  /// Schedules the kCheckpointTransfer completion for a transfer that
  /// started at `start` and completes at `done`.
  void schedule_completion(u8 sub, net::HostId host, net::MssId mss, u64 bytes,
                           des::Time start, des::Time done);

  des::Simulator& main_;
  const net::MssTopology& topology_;
  DataPlaneConfig cfg_;
  f64 wireless_latency_;
  f64 wired_latency_;
  des::TraceSink* sink_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  obs::Profiler* prof_ = nullptr;
  net::Network* network_ = nullptr;
  std::unique_ptr<StableStorage> storage_;
  std::vector<net::MssId> placement_;  ///< Per host: where its recovery image lives.
  std::vector<Journal> lanes_;  ///< Lane 0, then one per shard.
  u64 cross_shard_ties_ = 0;
  std::vector<Transfer> pending_;
  std::vector<u32> free_;
  DataPlaneStats stats_;
};

}  // namespace mobichk::storage
