// Stable-storage pricing over a checkpoint log (paper §2.2): each record
// is priced from its host's previous record.
#include <gtest/gtest.h>

#include <cmath>

#include "core/checkpoint_log.hpp"
#include "storage/data_plane.hpp"

namespace mobichk::core {
namespace {

storage::DataPlaneConfig incr(u64 state = 1000, f64 rate = 0.01) {
  storage::DataPlaneConfig cfg;
  cfg.full_state_bytes = state;
  cfg.dirty_rate = rate;
  cfg.incremental = true;
  return cfg;
}

/// Appends the next checkpoint of `host`, stored at `loc` at time `time`.
void add(CheckpointLog& log, net::HostId host, net::MssId loc, des::Time time) {
  CheckpointRecord rec;
  rec.host = host;
  rec.sn = log.count(host);
  rec.event_pos = log.count(host);
  rec.location = loc;
  rec.time = time;
  rec.kind = rec.sn == 0 ? CheckpointKind::kInitial : CheckpointKind::kBasic;
  log.append(std::move(rec));
}

TEST(StorageTraffic, FirstCheckpointUploadsFullState) {
  CheckpointLog log(2);
  add(log, 0, 0, 10.0);
  const StorageTraffic t = storage_traffic(log, incr());
  EXPECT_EQ(t.wireless_bytes, 1000u);
  EXPECT_EQ(t.wired_bytes, 0u);
  EXPECT_EQ(t.transfers, 0u);
}

TEST(StorageTraffic, IncrementalDeltaGrowsWithGap) {
  CheckpointLog log(1);
  add(log, 0, 0, 0.0);
  add(log, 0, 0, 10.0);  // dt = 10: delta = 1000 * (1 - e^-0.1)
  const u64 expect = static_cast<u64>(std::ceil(1000.0 * (1.0 - std::exp(-0.1))));
  EXPECT_EQ(storage_traffic(log, incr(1000, 0.01)).wireless_bytes, 1000u + expect);
  add(log, 0, 0, 30.0);  // dt = 20: a longer gap dirties more state
  const auto& records = log.of(0);
  EXPECT_GT(upload_bytes(&records[1], records[2], incr()), expect);
}

TEST(StorageTraffic, LongGapApproachesFullState) {
  CheckpointLog log(1);
  add(log, 0, 0, 0.0);
  add(log, 0, 0, 1e6);  // essentially all state dirtied
  EXPECT_EQ(storage_traffic(log, incr(1000, 0.01)).wireless_bytes, 2000u);
}

TEST(StorageTraffic, CellSwitchTriggersWiredTransfer) {
  CheckpointLog log(1);
  add(log, 0, 0, 0.0);
  add(log, 0, 1, 5.0);  // different MSS: fetch base checkpoint
  StorageTraffic t = storage_traffic(log, incr());
  EXPECT_EQ(t.wired_bytes, 1000u);
  EXPECT_EQ(t.transfers, 1u);
  add(log, 0, 1, 10.0);  // same MSS: no new transfer
  t = storage_traffic(log, incr());
  EXPECT_EQ(t.transfers, 1u);
}

TEST(StorageTraffic, FullModeNeverTransfers) {
  storage::DataPlaneConfig cfg = incr();
  cfg.incremental = false;
  CheckpointLog log(1);
  add(log, 0, 0, 0.0);
  add(log, 0, 1, 5.0);
  add(log, 0, 2, 10.0);
  const StorageTraffic t = storage_traffic(log, cfg);
  EXPECT_EQ(t.transfers, 0u);
  EXPECT_EQ(t.wireless_bytes, 3000u);  // full state every time
}

TEST(StorageTraffic, IncrementalBeatsFullForFrequentCheckpoints) {
  const storage::DataPlaneConfig icfg = incr(1'000'000, 0.001);
  storage::DataPlaneConfig fcfg = icfg;
  fcfg.incremental = false;
  CheckpointLog log(1);
  for (int i = 0; i < 100; ++i) add(log, 0, 0, i * 1.0);
  EXPECT_LT(storage_traffic(log, icfg).wireless_bytes,
            storage_traffic(log, fcfg).wireless_bytes / 10);
}

}  // namespace
}  // namespace mobichk::core
