#include "core/zgraph.hpp"

#include <gtest/gtest.h>

namespace mobichk::core {
namespace {

CheckpointRecord make(net::HostId host, u64 sn, u64 pos,
                      CheckpointKind kind = CheckpointKind::kBasic) {
  CheckpointRecord rec;
  rec.host = host;
  rec.sn = sn;
  rec.event_pos = pos;
  rec.kind = kind;
  return rec;
}

/// Two hosts, two checkpoints each (initial at 0 plus one at pos 10).
struct TwoHostFixture {
  TwoHostFixture() : log(2) {
    log.append(make(0, 0, 0, CheckpointKind::kInitial));
    log.append(make(1, 0, 0, CheckpointKind::kInitial));
    log.append(make(0, 1, 10));
    log.append(make(1, 1, 10));
  }
  CheckpointLog log;
  MessageLog messages;
};

TEST(IntervalGraph, IntervalOfRespectsCheckpointCuts) {
  TwoHostFixture f;
  IntervalGraph g(f.log, f.messages);
  EXPECT_EQ(g.interval_of(0, 1), 0u);
  EXPECT_EQ(g.interval_of(0, 10), 0u);   // position 10 is inside the first cut
  EXPECT_EQ(g.interval_of(0, 11), 1u);   // first event after the pos-10 checkpoint
  EXPECT_EQ(g.intervals(0), 2u);
}

TEST(IntervalGraph, NoMessagesNoZPaths) {
  TwoHostFixture f;
  IntervalGraph g(f.log, f.messages);
  EXPECT_FALSE(g.on_z_cycle(0, 1));
  EXPECT_FALSE(g.z_path_exists(0, 0, 1, 1));
  EXPECT_FALSE(g.z_path_exists(0, 0, 0, 1));  // forward-only reach is not a Z-path
  EXPECT_TRUE(g.useless_checkpoints().empty());
}

TEST(IntervalGraph, CausalPathIsZPath) {
  TwoHostFixture f;
  // m: sent by 0 in interval 0 (pos 3), received by 1 in interval 0 (pos 4).
  f.messages.note_delivery({1, 0, 1, 3, 4, 0});
  IntervalGraph g(f.log, f.messages);
  // Z-path from C_{0,0} to C_{1,1}: sent after 0's initial, received
  // before 1's pos-10 checkpoint.
  EXPECT_TRUE(g.z_path_exists(0, 0, 1, 1));
  // But not to C_{1,0}: nothing is received before position 0.
  EXPECT_FALSE(g.z_path_exists(0, 0, 1, 0));
  EXPECT_FALSE(g.on_z_cycle(0, 1));
  EXPECT_FALSE(g.on_z_cycle(1, 1));
}

TEST(IntervalGraph, ClassicZCycle) {
  // The textbook uselessness pattern: m1 from 0's interval 1 is received
  // by 1 in interval 1; m2 was sent by 1 in interval 1 *before* receiving
  // m1 and is received by 0 in interval 0 (before C_{0,1}). The zigzag
  // m1, m2 cycles through C_{0,1}, so C_{0,1} is useless.
  TwoHostFixture f;
  // m1: sent in interval 1 of host 0, received in interval 1 of host 1.
  f.messages.note_delivery({1, 0, 1, 12, 13, 0});
  // m2: sent in interval 1 of host 1, received in interval 0 of host 0.
  f.messages.note_delivery({2, 1, 0, 11, 8, 0});
  IntervalGraph g(f.log, f.messages);
  EXPECT_TRUE(g.on_z_cycle(0, 1));
  // Host 1's checkpoint is fine: no chain ends before its pos-10 ckpt.
  EXPECT_FALSE(g.on_z_cycle(1, 1));
  const auto useless = g.useless_checkpoints();
  ASSERT_EQ(useless.size(), 1u);
  EXPECT_EQ(useless[0]->host, 0u);
  EXPECT_EQ(useless[0]->ordinal, 1u);
}

TEST(IntervalGraph, ZigzagAllowsSendBeforeReceiveInSameInterval) {
  // Distinguishes Z-paths from causal paths: m2 is sent before m1 is
  // received (same interval), so there is NO causal path, yet the
  // zigzag still forms.
  TwoHostFixture f;
  f.messages.note_delivery({1, 0, 1, 12, 19, 0});  // received late in interval 1 of host 1
  f.messages.note_delivery({2, 1, 0, 11, 8, 0});  // sent earlier in that same interval
  IntervalGraph g(f.log, f.messages);
  EXPECT_TRUE(g.on_z_cycle(0, 1));
}

TEST(IntervalGraph, ThreeHostTransitiveZPath) {
  CheckpointLog log(3);
  MessageLog messages;
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 10));
  log.append(make(2, 1, 10));
  // 0 -> 1 (recv interval 1), then 1 -> 2 from interval 1, recv before
  // C_{2,1}: Z-path from C_{0,1} to C_{2,1} via host 1.
  messages.note_delivery({1, 0, 1, 11, 12, 0});
  messages.note_delivery({2, 1, 2, 13, 7, 0});
  IntervalGraph g(log, messages);
  EXPECT_TRUE(g.z_path_exists(0, 1, 2, 1));
  EXPECT_FALSE(g.z_path_exists(2, 1, 0, 1));
  EXPECT_FALSE(g.on_z_cycle(0, 1));
}

TEST(IntervalGraph, LaterIntervalContinuation) {
  // m1 received in interval 0 of host 1; m2 sent from interval *1* of
  // host 1 (a later interval): still a valid continuation.
  TwoHostFixture f;
  // Interval 1 of host 0 to interval 0 of host 1, then interval 1 of
  // host 1 to interval 0 of host 0, which closes the cycle.
  f.messages.note_delivery({1, 0, 1, 11, 5, 0});
  f.messages.note_delivery({2, 1, 0, 15, 9, 0});
  IntervalGraph g(f.log, f.messages);
  EXPECT_TRUE(g.on_z_cycle(0, 1));
}

TEST(IntervalGraph, InitialCheckpointsNeverUseless) {
  TwoHostFixture f;
  f.messages.note_delivery({1, 0, 1, 2, 3, 0});
  IntervalGraph g(f.log, f.messages);
  EXPECT_FALSE(g.on_z_cycle(0, 0));
  EXPECT_FALSE(g.on_z_cycle(1, 0));
}

TEST(IntervalGraph, RejectsEmptyHosts) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0));
  MessageLog messages;
  EXPECT_THROW(IntervalGraph(log, messages), std::invalid_argument);
}

}  // namespace
}  // namespace mobichk::core
