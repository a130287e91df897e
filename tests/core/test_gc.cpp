#include "core/gc.hpp"

#include <gtest/gtest.h>

#include "storage/data_plane.hpp"

namespace mobichk::core {
namespace {

CheckpointRecord make(net::HostId host, u64 sn, u64 pos, net::MssId loc = 0,
                      des::Time time = 0.0) {
  CheckpointRecord rec;
  rec.host = host;
  rec.sn = sn;
  rec.event_pos = pos;
  rec.location = loc;
  rec.time = time;
  rec.kind = pos == 0 ? CheckpointKind::kInitial : CheckpointKind::kBasic;
  return rec;
}

TEST(GcAnalysis, ZeroHostLogHasNoStableLine) {
  // stable_index_of over an empty max-sn vector is the min-identity
  // ~0ULL; analyze_gc must pass that through without building members.
  CheckpointLog log(0);
  const GcAnalysis gc = analyze_gc(log, IndexLineRule::kFirstAtLeast, 2);
  EXPECT_EQ(gc.stable_index, ~0ULL);
  EXPECT_TRUE(gc.stable_line.members.empty());
  EXPECT_EQ(gc.total_collectible(), 0u);
}

TEST(GcAnalysis, StableIndexIsTheMinimumOfMaxima) {
  CheckpointLog log(3);
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0));
  log.append(make(0, 3, 10));
  log.append(make(1, 1, 10));
  log.append(make(2, 5, 10));
  const GcAnalysis gc = analyze_gc(log, IndexLineRule::kFirstAtLeast, 2);
  EXPECT_EQ(gc.stable_index, 1u);  // host 1 only reached 1
}

TEST(GcAnalysis, CollectsEverythingOlderThanTheStableMember) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, 0, 0.0));
  log.append(make(1, 0, 0, 1, 0.0));
  log.append(make(0, 1, 5, 0, 10.0));
  log.append(make(0, 2, 9, 1, 20.0));
  log.append(make(1, 2, 7, 1, 25.0));
  // Stable index = min(2, 2) = 2. Host 0's member for index 2 is its
  // ordinal-2 checkpoint, so ordinals 0 and 1 are dead; host 1's member
  // is ordinal 1, so ordinal 0 is dead.
  const GcAnalysis gc = analyze_gc(log, IndexLineRule::kFirstAtLeast, 2);
  EXPECT_EQ(gc.stable_index, 2u);
  EXPECT_EQ(gc.collectible_per_host[0], 2u);
  EXPECT_EQ(gc.collectible_per_host[1], 1u);
  EXPECT_EQ(gc.total_collectible(), 3u);
  EXPECT_EQ(gc.total_retained(log), 2u);
  // Per-MSS split: host 0's dead ordinals 0,1 live at MSS 0; host 1's
  // dead ordinal 0 lives at MSS 1.
  EXPECT_EQ(gc.collectible_per_mss[0], 2u);
  EXPECT_EQ(gc.collectible_per_mss[1], 1u);
  EXPECT_EQ(gc.stable_line.virtual_members(), 0u);
}

TEST(GcAnalysis, QbcRuleRetainsOnlyTheLastReplacement) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 0, 4));   // replacement
  log.append(make(0, 0, 8));   // replacement
  const GcAnalysis first = analyze_gc(log, IndexLineRule::kFirstAtLeast, 1);
  const GcAnalysis last = analyze_gc(log, IndexLineRule::kLastEqual, 1);
  EXPECT_EQ(first.collectible_per_host[0], 0u);  // member = ordinal 0
  EXPECT_EQ(last.collectible_per_host[0], 2u);   // member = ordinal 2
}

TEST(GcAnalysis, NothingCollectibleAtStart) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0));
  log.append(make(1, 0, 0));
  const GcAnalysis gc = analyze_gc(log, IndexLineRule::kFirstAtLeast, 1);
  EXPECT_EQ(gc.stable_index, 0u);
  EXPECT_EQ(gc.total_collectible(), 0u);
}

TEST(GcOccupancy, TimelineTracksRetention) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, 0, 0.0));
  log.append(make(1, 0, 0, 0, 0.0));
  log.append(make(0, 1, 5, 0, 100.0));
  log.append(make(1, 1, 5, 0, 150.0));
  log.append(make(0, 2, 9, 0, 300.0));
  log.append(make(1, 2, 9, 0, 350.0));
  const auto timeline = gc_occupancy_timeline(log, IndexLineRule::kFirstAtLeast, 400.0, 4);
  ASSERT_EQ(timeline.size(), 4u);
  // t=100: 3 checkpoints taken, stable index 0 -> everything retained.
  EXPECT_EQ(timeline[0].live_without_gc, 3u);
  EXPECT_EQ(timeline[0].live_with_gc, 3u);
  // t=200: 4 taken; stable index 1: each host keeps 1 (member ordinal 1).
  EXPECT_EQ(timeline[1].live_without_gc, 4u);
  EXPECT_EQ(timeline[1].live_with_gc, 2u);
  // t=400: 6 taken; stable index 2: each host keeps only ordinal 2.
  EXPECT_EQ(timeline[3].live_without_gc, 6u);
  EXPECT_EQ(timeline[3].live_with_gc, 2u);
}

TEST(GcOccupancy, WithGcNeverExceedsWithout) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, 0, 0.0));
  log.append(make(1, 0, 0, 0, 0.0));
  for (u64 i = 1; i <= 20; ++i) {
    log.append(make(0, i, i * 3, 0, static_cast<des::Time>(i) * 10.0));
    if (i % 2 == 0) log.append(make(1, i, i * 2, 0, static_cast<des::Time>(i) * 10.0 + 1.0));
  }
  for (const auto& s : gc_occupancy_timeline(log, IndexLineRule::kFirstAtLeast, 220.0, 11)) {
    EXPECT_LE(s.live_with_gc, s.live_without_gc);
    EXPECT_GE(s.live_with_gc, 2u);  // at least one checkpoint per host survives
  }
}

TEST(GcBytes, ReclaimableBytesSumTheDeadUploads) {
  storage::DataPlaneConfig sizing;
  sizing.full_state_bytes = 1000;
  sizing.dirty_rate = 1e9;  // every delta is effectively a full upload
  CheckpointLog log(2);
  log.append(make(0, 0, 0, 0, 0.0));
  log.append(make(1, 0, 0, 0, 0.0));
  log.append(make(0, 1, 5, 0, 10.0));
  log.append(make(1, 1, 5, 0, 12.0));
  const GcAnalysis gc = analyze_gc(log, IndexLineRule::kFirstAtLeast, 1);
  // Stable index 1: each host's ordinal-0 checkpoint (1000 B) is dead.
  EXPECT_EQ(gc_reclaimable_bytes(gc, log, sizing), 2000u);
}

TEST(GcBytes, HistoryRecordsPerCheckpointSizes) {
  // The log is the upload history: each record prices from its
  // predecessor, and the per-record sizes sum to the run's upload total.
  storage::DataPlaneConfig sizing;
  sizing.full_state_bytes = 1000;
  sizing.dirty_rate = 0.01;
  CheckpointLog log(1);
  log.append(make(0, 0, 0, 0, 0.0));
  log.append(make(0, 1, 5, 0, 10.0));
  const auto& records = log.of(0);
  const u64 first = upload_bytes(nullptr, records[0], sizing);
  const u64 second = upload_bytes(&records[0], records[1], sizing);
  EXPECT_EQ(first, 1000u);
  EXPECT_LT(second, 1000u);  // incremental delta
  EXPECT_EQ(first + second, storage_traffic(log, sizing).wireless_bytes);
}

}  // namespace
}  // namespace mobichk::core
