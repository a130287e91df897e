#include "core/replay.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mobichk::core {
namespace {

CheckpointRecord member_at(net::MssId loc) {
  CheckpointRecord rec;
  rec.location = loc;
  return rec;
}

RollbackResult make_rollback(std::vector<const CheckpointRecord*> members,
                             std::vector<u64> line_pos, std::vector<u64> fail_pos) {
  RollbackResult rb;
  rb.line.members = std::move(members);
  rb.line.pos = std::move(line_pos);
  rb.fail_pos = std::move(fail_pos);
  rb.checkpoints_discarded.assign(rb.line.pos.size(), 0);
  return rb;
}

TEST(PlanRecovery, UntouchedSurvivorsDoNotParticipate) {
  const CheckpointRecord m0 = member_at(0);
  const auto rb = make_rollback({&m0, nullptr}, {5, 20}, {9, 20});
  MessageLog messages;
  const auto plan = plan_recovery(rb, messages, {true, false}, {0, 1}, 2);
  EXPECT_TRUE(plan.hosts[0].participates);
  EXPECT_TRUE(plan.hosts[0].crashed);
  EXPECT_FALSE(plan.hosts[1].participates);
  EXPECT_EQ(plan.hosts_down, 1u);
  EXPECT_EQ(plan.undone_events, 4u);
  EXPECT_DOUBLE_EQ(plan.completion, plan.hosts[0].ready_at);
}

TEST(PlanRecovery, RolledBackSurvivorParticipatesWithoutCrashing) {
  const CheckpointRecord m0 = member_at(0);
  const CheckpointRecord m1 = member_at(1);
  const auto rb = make_rollback({&m0, &m1}, {5, 10}, {9, 25});
  MessageLog messages;
  const auto plan = plan_recovery(rb, messages, {true, false}, {0, 1}, 2);
  EXPECT_TRUE(plan.hosts[1].participates);
  EXPECT_FALSE(plan.hosts[1].crashed);
  EXPECT_EQ(plan.hosts[1].undone_events, 15u);
  EXPECT_EQ(plan.hosts_down, 1u);
}

TEST(PlanRecovery, SameCellTransfersQueueFifo) {
  const CheckpointRecord m0 = member_at(0);
  const CheckpointRecord m1 = member_at(0);
  RecoveryTimeConfig cfg;
  cfg.state_bytes = 1000;
  cfg.wireless_bandwidth = 100.0;  // 10 tu per downlink transfer
  cfg.event_replay_time = 0.0;
  cfg.restart_overhead = 0.0;
  const auto rb = make_rollback({&m0, &m1}, {5, 5}, {5, 5});
  MessageLog messages;
  // Both restore in cell 0: the second host's image waits for the first.
  const auto plan = plan_recovery(rb, messages, {true, true}, {0, 0}, 2, cfg);
  const f64 xfer = cfg.wireless_latency + 10.0;
  EXPECT_NEAR(plan.hosts[0].restore_done - plan.estimate.coordination, xfer, 1e-9);
  EXPECT_NEAR(plan.hosts[1].restore_done - plan.estimate.coordination, 2.0 * xfer, 1e-9);
  // With each image stored in its own cell the downlinks run in parallel.
  const CheckpointRecord m1_local = member_at(1);
  const auto rb_par = make_rollback({&m0, &m1_local}, {5, 5}, {5, 5});
  const auto par = plan_recovery(rb_par, messages, {true, true}, {0, 1}, 2, cfg);
  EXPECT_NEAR(par.hosts[0].restore_done, par.hosts[1].restore_done, 1e-9);
  EXPECT_LT(par.completion, plan.completion);
}

TEST(PlanRecovery, PipelinedCompletionNeverExceedsThePhaseBarrierEstimate) {
  // The reconciliation invariant the crash engine relies on: when every
  // crashed host restores from a stored member, per-host pipelining can
  // only improve on the analytical estimate's global phase barriers.
  const CheckpointRecord m0 = member_at(0);
  const CheckpointRecord m1 = member_at(1);
  const CheckpointRecord m2 = member_at(0);
  RecoveryTimeConfig cfg;
  cfg.state_bytes = 2000;
  cfg.wireless_bandwidth = 100.0;
  cfg.event_replay_time = 0.5;
  const auto rb =
      make_rollback({&m0, &m1, &m2}, {10, 40, 0}, {30, 50, 45});
  MessageLog messages;
  const auto plan = plan_recovery(rb, messages, {true, true, true}, {0, 1, 1}, 2, cfg);
  EXPECT_LE(plan.completion, plan.estimate.total() + 1e-9);
  EXPECT_GT(plan.completion, 0.0);
}

TEST(PlanRecovery, ReplayCountsOnlyUndoneDeliveriesOfParticipants) {
  const CheckpointRecord m0 = member_at(0);
  const auto rb = make_rollback({&m0, nullptr}, {5, 20}, {12, 20});
  MessageLog messages;
  messages.note_delivery({1, 1, 0, 3, 4, 0});  // received at pos 4 <= line: state kept
  messages.note_delivery({2, 1, 0, 6, 8, 0});  // undone: 5 < 8 <= 12 — replayed
  messages.note_delivery({3, 1, 0, 9, 14, 0});  // past the failure cut: never happened
  messages.note_delivery({4, 0, 1, 2, 10, 0});  // delivered to a non-participant
  const auto plan = plan_recovery(rb, messages, {true, false}, {0, 0}, 1);
  EXPECT_EQ(plan.replayed_messages, 1u);
  EXPECT_EQ(plan.hosts[0].replayed_messages, 1u);
  EXPECT_EQ(plan.hosts[1].replayed_messages, 0u);
}

TEST(PlanRecovery, EmptyPlanIsAllZero) {
  const auto rb = make_rollback({}, {}, {});
  MessageLog messages;
  const auto plan = plan_recovery(rb, messages, {}, {}, 0);
  EXPECT_EQ(plan.hosts_down, 0u);
  EXPECT_EQ(plan.undone_events, 0u);
  EXPECT_DOUBLE_EQ(plan.completion, 0.0);
  EXPECT_DOUBLE_EQ(plan.estimate.total(), 0.0);
}

TEST(PlanRecovery, Validation) {
  const auto rb = make_rollback({nullptr}, {5}, {9});
  MessageLog messages;
  EXPECT_THROW(plan_recovery(rb, messages, {true, false}, {0}, 1), std::invalid_argument);
  EXPECT_THROW(plan_recovery(rb, messages, {true}, {0, 0}, 1), std::invalid_argument);
  auto bad = make_rollback({nullptr}, {9}, {5});  // line above the cut
  EXPECT_THROW(plan_recovery(bad, messages, {true}, {0}, 1), std::logic_error);
}

}  // namespace
}  // namespace mobichk::core
