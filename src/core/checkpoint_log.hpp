// Per-protocol record of every checkpoint taken during a run, with the
// queries the recovery-line builders need and the stable-storage pricing
// of paper §2.2.
#pragma once

#include <memory>
#include <vector>

#include "core/checkpoint.hpp"
#include "des/lane.hpp"
#include "des/relaxed_counter.hpp"
#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::storage {
struct DataPlaneConfig;
}

namespace mobichk::core {

class CheckpointLog {
 public:
  explicit CheckpointLog(u32 n_hosts) : per_host_(n_hosts), arenas_(1) {}

  /// Appends a record, assigning its per-host ordinal. `rec.sn` must be
  /// non-decreasing per host (all protocols in this suite guarantee it).
  const CheckpointRecord& append(CheckpointRecord rec);

  /// Copies `n` bytes of an encoded dependency snapshot into the calling
  /// lane's arena and returns where they now live: they stay there, never
  /// moved, until the log is destroyed. Records point at them
  /// (CheckpointRecord::dep_bytes).
  const u8* store_deps(const u8* bytes, usize n);

  /// Gives each of `n_shards` shard lanes a snapshot arena of its own
  /// beside lane 0's, so shard-parallel windows store snapshots without
  /// sharing one.
  void enable_sharding(u32 n_shards) { arenas_.resize(1 + n_shards); }

  u32 n_hosts() const noexcept { return static_cast<u32>(per_host_.size()); }

  const std::vector<CheckpointRecord>& of(net::HostId host) const { return per_host_.at(host); }

  u64 count(net::HostId host) const { return per_host_.at(host).size(); }

  // -- aggregate counts -------------------------------------------------
  u64 total() const noexcept { return total_; }
  u64 initial() const noexcept { return initial_; }
  u64 basic() const noexcept { return basic_; }
  u64 forced() const noexcept { return forced_; }
  /// N_tot in the paper: every checkpoint recorded on stable storage
  /// during the run, excluding the initial ones.
  u64 n_tot() const noexcept { return total_ - initial_; }

  // -- recovery-line queries ---------------------------------------------

  const CheckpointRecord* by_ordinal(net::HostId host, u64 ordinal) const;

  /// First checkpoint of `host` with sn >= `sn` (nullptr if none).
  const CheckpointRecord* first_with_sn_at_least(net::HostId host, u64 sn) const;

  /// Last checkpoint of `host` with sn == `sn` (nullptr if none). For QBC
  /// this is the equivalence-rule replacement that belongs to the line.
  const CheckpointRecord* last_with_sn(net::HostId host, u64 sn) const;

  /// Latest checkpoint of `host` with event_pos <= `pos` (nullptr if none;
  /// never null once the initial checkpoint exists, since its pos is 0).
  const CheckpointRecord* last_at_or_before_pos(net::HostId host, u64 pos) const;

  /// Relabels the *last* checkpoint of `host` with a larger sn. Used by
  /// the coordinated protocol: a checkpoint taken upon disconnection
  /// stands in for every snapshot round initiated while the host is
  /// unreachable, which is sound because the host executes no events
  /// while disconnected. `new_sn` must be >= the current sn.
  void promote_sn(net::HostId host, u64 new_sn);

  /// Maximum sn over all checkpoints of `host` (0 if none).
  u64 max_sn(net::HostId host) const;

  /// Maximum sn over all hosts.
  u64 max_sn() const;

 private:
  /// Append-only byte arena for dependency snapshots, one per lane: blocks
  /// of about 64 KiB, allocated uninitialised on first use, never moved,
  /// freed with the log. A snapshot larger than a block gets a block of
  /// its own. Padded against false sharing between lanes.
  class DepArena {
   public:
    const u8* store(const u8* bytes, usize n);

   private:
    static constexpr usize kBlockBytes = usize{64} << 10;
    std::vector<std::unique_ptr<u8[]>> blocks_;
    u8* next_ = nullptr;  ///< Free space in the open block.
    usize left_ = 0;
    char pad_[des::kLanePadBytes];
  };
  std::vector<std::vector<CheckpointRecord>> per_host_;
  std::vector<DepArena> arenas_;  ///< Lane 0, then one per shard.
  // Relaxed atomics: shard-parallel windows append checkpoints for
  // different hosts concurrently (the per-host vectors are owner-local;
  // these aggregates are order-independent sums).
  des::RelaxedCounter total_;
  des::RelaxedCounter initial_;
  des::RelaxedCounter basic_;
  des::RelaxedCounter forced_;
};

// -- stable-storage pricing (paper §2.2) ----------------------------------
//
// Every checkpoint is uploaded over the wireless link to the MSS it names
// (`location`). Only `sizing`'s full_state_bytes (S), dirty_rate (omega)
// and incremental knobs apply, whether or not the data plane runs.

/// Upload size of `rec`: S for a host's first checkpoint (`prev` null) or
/// in full mode; otherwise the state dirtied since `prev`, the host's
/// previous record.
u64 upload_bytes(const CheckpointRecord* prev, const CheckpointRecord& rec,
                 const storage::DataPlaneConfig& sizing);

/// Checkpoint-storage traffic implied by a whole log.
struct StorageTraffic {
  u64 wireless_bytes = 0;  ///< MH -> MSS uploads.
  u64 wired_bytes = 0;     ///< MSS -> MSS base-checkpoint fetches.
  u64 transfers = 0;       ///< Fetch operations.
};

/// Prices every record from its predecessor. In incremental mode a record
/// stored at another MSS than its predecessor first makes its MSS fetch
/// the base checkpoint (S bytes) over the wired network.
StorageTraffic storage_traffic(const CheckpointLog& log, const storage::DataPlaneConfig& sizing);

}  // namespace mobichk::core
