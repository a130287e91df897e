// Checkpoint data-plane semantics, pinned at the unit level against
// closed-form oracles: incremental pricing, pre/post-copy migration
// phase accounting, locality decay under frozen placement, and the
// recovery fetch bill — plus a run-level check that executed recovery
// gets measurably slower when the image is far away or the disk is busy.
#include <gtest/gtest.h>

#include <cmath>

#include "core/checkpoint_log.hpp"
#include "des/simulator.hpp"
#include "net/topology.hpp"
#include "sim/experiment.hpp"
#include "storage/data_plane.hpp"

namespace mobichk::storage {
namespace {

constexpr f64 kWirelessLat = 0.005;
constexpr f64 kWiredLat = 0.01;

DataPlaneConfig enabled_config() {
  DataPlaneConfig cfg;
  cfg.enabled = true;
  return cfg;
}

struct PlaneFixture {
  des::Simulator sim;
  net::MssTopology topology;
  DataPlane plane;

  PlaneFixture(DataPlaneConfig cfg, net::MssTopologyKind kind = net::MssTopologyKind::kLine,
               u32 n_mss = 5, u32 n_hosts = 4)
      : topology(kind, n_mss), plane(sim, topology, cfg, n_hosts, kWirelessLat, kWiredLat) {}
};

TEST(DataPlaneNames, MigrationStrategyRoundTrip) {
  for (const MigrationStrategy s :
       {MigrationStrategy::kNone, MigrationStrategy::kPreCopy, MigrationStrategy::kPostCopy}) {
    MigrationStrategy parsed{};
    ASSERT_TRUE(parse_migration_strategy(migration_strategy_name(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  MigrationStrategy out{};
  EXPECT_FALSE(parse_migration_strategy("teleport", out));
}

TEST(DataPlaneConfigTest, ValidateRejectsBadKnobs) {
  DataPlaneConfig cfg = enabled_config();
  cfg.full_state_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = enabled_config();
  cfg.dirty_rate = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = enabled_config();
  cfg.storage_bandwidth = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = enabled_config();
  cfg.precopy_stop_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

/// A checkpoint record of host 0 at MSS 0, taken at `time`.
core::CheckpointRecord record_at(des::Time time) {
  core::CheckpointRecord rec;
  rec.time = time;
  return rec;
}

TEST(DataPlanePricing, FirstCheckpointIsFullThenDirtyDelta) {
  DataPlaneConfig cfg = enabled_config();
  cfg.model = StableStorageKind::kInfinite;
  PlaneFixture f(cfg);
  const f64 dt = 25.0;
  const core::CheckpointRecord r0 = record_at(10.0);
  const core::CheckpointRecord r1 = record_at(10.0 + dt);
  const u64 first = core::upload_bytes(nullptr, r0, cfg);
  EXPECT_EQ(first, cfg.full_state_bytes);  // nothing to diff against
  const u64 second = core::upload_bytes(&r0, r1, cfg);
  const u64 want = static_cast<u64>(std::ceil(static_cast<f64>(cfg.full_state_bytes) *
                                              (1.0 - std::exp(-cfg.dirty_rate * dt))));
  EXPECT_EQ(second, want);
  EXPECT_EQ(second, dirtied_bytes(cfg.full_state_bytes, cfg.dirty_rate, dt));
  EXPECT_LT(second, first);
  f.plane.on_checkpoint(0, 0, r0.time, 0, first);
  f.plane.on_checkpoint(0, 0, r1.time, 0, second);
  EXPECT_EQ(f.plane.stats().checkpoints, 2u);
  EXPECT_EQ(f.plane.stats().upload_bytes, first + second);
  EXPECT_EQ(f.plane.stats().full_bytes, 2 * cfg.full_state_bytes);
}

TEST(DataPlanePricing, DenseModeUploadsTheFullImageEveryTime) {
  DataPlaneConfig cfg = enabled_config();
  cfg.incremental = false;
  cfg.model = StableStorageKind::kInfinite;
  PlaneFixture f(cfg);
  const core::CheckpointRecord r0 = record_at(10.0);
  const core::CheckpointRecord r1 = record_at(11.0);
  EXPECT_EQ(core::upload_bytes(nullptr, r0, cfg), cfg.full_state_bytes);
  EXPECT_EQ(core::upload_bytes(&r0, r1, cfg), cfg.full_state_bytes);
  f.plane.on_checkpoint(0, 0, r0.time, 0, core::upload_bytes(nullptr, r0, cfg));
  f.plane.on_checkpoint(0, 0, r1.time, 0, core::upload_bytes(&r0, r1, cfg));
  // The dense-equivalent account equals the actual upload account: the
  // differential the abl/figure benches report is exactly this gap.
  EXPECT_EQ(f.plane.stats().upload_bytes, f.plane.stats().full_bytes);
}

TEST(DataPlanePlacement, FirstImageLandsAtTheWritingMssAndFreezesUnderNone) {
  DataPlaneConfig cfg = enabled_config();
  cfg.migration = MigrationStrategy::kNone;
  cfg.model = StableStorageKind::kInfinite;
  PlaneFixture f(cfg);
  EXPECT_EQ(f.plane.placement(0), net::kNoMss);
  f.plane.on_checkpoint(0, 1, 5.0, 0, cfg.full_state_bytes);
  EXPECT_EQ(f.plane.placement(0), 1u);
  // The host drifts down the line; the image stays put and every handoff
  // samples a growing hop distance.
  f.plane.on_handoff(0, 1, 2, 10.0);
  f.plane.on_handoff(0, 2, 3, 20.0);
  f.plane.on_handoff(0, 3, 4, 30.0);
  EXPECT_EQ(f.plane.placement(0), 1u);
  // Samples: checkpoint @hops 0, handoffs @1, @2, @3.
  EXPECT_EQ(f.plane.stats().locality_samples, 4u);
  EXPECT_EQ(f.plane.stats().locality_hops, 0u + 1u + 2u + 3u);
  EXPECT_DOUBLE_EQ(f.plane.stats().mean_locality(), 6.0 / 4.0);
  EXPECT_EQ(f.plane.stats().migrations, 0u);
}

TEST(DataPlaneMigration, PreCopyStallIsTheFinalStopAndCopyOnly) {
  DataPlaneConfig cfg = enabled_config();
  cfg.model = StableStorageKind::kInfinite;
  cfg.migration = MigrationStrategy::kPreCopy;
  cfg.dirty_rate = 0.0;  // nothing re-dirties: one round copies everything
  PlaneFixture f(cfg);
  f.plane.on_checkpoint(0, 0, 5.0, 0, cfg.full_state_bytes);
  f.plane.on_handoff(0, 0, 1, 10.0);  // 1 wired hop on the line
  const DataPlaneStats& s = f.plane.stats();
  EXPECT_EQ(s.migrations, 1u);
  // Round 1 copies the full image in the background; the residual dirty
  // set is empty, so the stop-and-copy stall is just the control latency.
  EXPECT_EQ(s.migration_bytes, cfg.full_state_bytes);
  EXPECT_DOUBLE_EQ(s.migration_copy_time,
                   kWiredLat + static_cast<f64>(cfg.full_state_bytes) / cfg.wired_bandwidth);
  EXPECT_DOUBLE_EQ(s.migration_stall, kWiredLat);
  EXPECT_EQ(f.plane.placement(0), 1u);
}

TEST(DataPlaneMigration, PostCopyFlipsPlacementAndBackFills) {
  DataPlaneConfig cfg = enabled_config();
  cfg.model = StableStorageKind::kInfinite;
  cfg.migration = MigrationStrategy::kPostCopy;
  PlaneFixture f(cfg);
  f.plane.on_checkpoint(0, 0, 5.0, 0, cfg.full_state_bytes);
  f.plane.on_handoff(0, 0, 2, 10.0);  // 2 wired hops on the line
  const DataPlaneStats& s = f.plane.stats();
  const f64 lat = 2.0 * kWiredLat;
  EXPECT_EQ(s.migrations, 1u);
  EXPECT_EQ(s.migration_bytes, cfg.full_state_bytes);
  EXPECT_DOUBLE_EQ(s.migration_stall, lat);  // one control round-trip
  EXPECT_DOUBLE_EQ(s.migration_copy_time,
                   lat + static_cast<f64>(cfg.full_state_bytes) / cfg.wired_bandwidth);
  EXPECT_EQ(f.plane.placement(0), 2u);
}

TEST(DataPlaneMigration, PreCopyRoundsShrinkGeometricallyUnderDirtying) {
  DataPlaneConfig cfg = enabled_config();
  cfg.model = StableStorageKind::kInfinite;
  cfg.migration = MigrationStrategy::kPreCopy;
  // Dirtying fast enough that the residual is sizeable but shrinking:
  // total moved bytes must exceed one image (the rounds) and the stall
  // must be strictly below one full-image copy (the point of pre-copy).
  cfg.dirty_rate = 0.3;
  PlaneFixture f(cfg);
  f.plane.on_checkpoint(0, 0, 5.0, 0, cfg.full_state_bytes);
  f.plane.on_handoff(0, 0, 1, 10.0);
  const DataPlaneStats& s = f.plane.stats();
  EXPECT_GT(s.migration_bytes, cfg.full_state_bytes);
  const f64 full_copy = kWiredLat + static_cast<f64>(cfg.full_state_bytes) / cfg.wired_bandwidth;
  EXPECT_LT(s.migration_stall, full_copy);
  EXPECT_GT(s.migration_stall, 0.0);
}

TEST(DataPlaneFetch, LocalImageOnIdleDiskIsFree) {
  DataPlaneConfig cfg = enabled_config();
  cfg.model = StableStorageKind::kInfinite;
  PlaneFixture f(cfg);
  EXPECT_DOUBLE_EQ(f.plane.recovery_fetch(0, 3, 100.0), 0.0);  // no image yet
  f.plane.on_checkpoint(0, 2, 5.0, 0, cfg.full_state_bytes);
  EXPECT_DOUBLE_EQ(f.plane.recovery_fetch(0, 2, 100.0), 0.0);
}

TEST(DataPlaneFetch, BillGrowsWithHopDistance) {
  DataPlaneConfig cfg = enabled_config();
  cfg.model = StableStorageKind::kInfinite;
  cfg.migration = MigrationStrategy::kNone;
  PlaneFixture f(cfg);
  f.plane.on_checkpoint(0, 0, 5.0, 0, cfg.full_state_bytes);
  const f64 wire = static_cast<f64>(cfg.full_state_bytes) / cfg.wired_bandwidth;
  const f64 near = f.plane.recovery_fetch(0, 1, 100.0);
  const f64 far = f.plane.recovery_fetch(0, 4, 200.0);
  EXPECT_DOUBLE_EQ(near, 1.0 * kWiredLat + wire);
  EXPECT_DOUBLE_EQ(far, 4.0 * kWiredLat + wire);
  EXPECT_GT(far, near);
  EXPECT_EQ(f.plane.stats().fetches, 2u);
  EXPECT_EQ(f.plane.stats().fetch_hops, 5u);
}

TEST(DataPlaneFetch, BusyDiskDelaysTheRead) {
  DataPlaneConfig cfg = enabled_config();
  cfg.model = StableStorageKind::kContention;
  PlaneFixture f(cfg);
  f.plane.on_checkpoint(0, 0, 5.0, 0, cfg.full_state_bytes);  // occupies the device of MSS 0
  const f64 read_service = static_cast<f64>(cfg.full_state_bytes) / cfg.storage_bandwidth;
  // Fetch immediately after the upload was admitted: the read queues
  // behind it, so the bill exceeds the pure device-read time.
  const f64 bill = f.plane.recovery_fetch(0, 0, 5.0);
  EXPECT_GT(bill, read_service);
  EXPECT_GT(f.plane.stats().queue_delay, 0.0);
}

// ---------------------------------------------------------------------------
// Run level: the fetch bill must show up in the measured outage.
// ---------------------------------------------------------------------------

sim::RunResult crashed_run(MigrationStrategy migration, StableStorageKind model) {
  sim::SimConfig cfg;
  cfg.sim_length = 8'000.0;
  cfg.t_switch = 150.0;  // drift far between checkpoints
  cfg.network.mss_topology = net::MssTopologyKind::kLine;
  cfg.seed = 7;
  cfg.faults.mode = sim::CrashMode::kCorrelated;
  cfg.faults.correlated = 4;
  cfg.faults.first_crash_at = 4'000.0;
  sim::ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kBcs};
  opts.data_plane.enabled = true;
  opts.data_plane.migration = migration;
  opts.data_plane.model = model;
  opts.data_plane.wired_bandwidth = 2.0e4;  // slow backbone: distance dominates
  return sim::run_experiment(cfg, opts);
}

TEST(DataPlaneRecovery, ExecutedRecoverySlowsWithFetchDistance) {
  const sim::RunResult far = crashed_run(MigrationStrategy::kNone, StableStorageKind::kInfinite);
  const sim::RunResult near =
      crashed_run(MigrationStrategy::kPreCopy, StableStorageKind::kInfinite);
  ASSERT_GT(far.recovery.crashes_executed, 0u);
  ASSERT_GT(far.data_plane.fetch_hops, 0u);  // frozen placement drifted away
  EXPECT_EQ(near.data_plane.fetch_hops, 0u);  // precopy kept the image local
  EXPECT_GT(far.recovery.total_recovery_time, near.recovery.total_recovery_time);
}

TEST(DataPlaneRecovery, ExecutedRecoverySlowsUnderStorageContention) {
  const sim::RunResult idle =
      crashed_run(MigrationStrategy::kPreCopy, StableStorageKind::kInfinite);
  const sim::RunResult busy =
      crashed_run(MigrationStrategy::kPreCopy, StableStorageKind::kContention);
  ASSERT_GT(busy.recovery.crashes_executed, 0u);
  EXPECT_GT(busy.data_plane.queue_delay, 0.0);
  EXPECT_GT(busy.recovery.total_recovery_time, idle.recovery.total_recovery_time);
}

}  // namespace
}  // namespace mobichk::storage
