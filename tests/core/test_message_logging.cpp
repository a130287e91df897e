#include "core/message_logging.hpp"

#include <gtest/gtest.h>

#include "core/gc.hpp"
#include "sim/experiment.hpp"

namespace mobichk::core {
namespace {

CheckpointRecord make(net::HostId host, u64 sn, u64 pos) {
  CheckpointRecord rec;
  rec.host = host;
  rec.sn = sn;
  rec.event_pos = pos;
  rec.kind = pos == 0 ? CheckpointKind::kInitial : CheckpointKind::kBasic;
  return rec;
}

TEST(LoggingRollback, OnlyFailedHostRollsBack) {
  CheckpointLog log(3);
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0));
  log.append(make(1, 1, 10));
  MessageLog messages;
  const auto result = logging_rollback(log, messages, {20, 25, 30}, 1);
  EXPECT_EQ(result.rollback.line.pos[0], 20u);  // survivor untouched
  EXPECT_EQ(result.rollback.line.pos[1], 10u);  // failed host at its checkpoint
  EXPECT_EQ(result.rollback.line.pos[2], 30u);
  EXPECT_EQ(result.rollback.undone_events(), 15u);
  EXPECT_EQ(result.rollback.line.members[0], nullptr);
  EXPECT_NE(result.rollback.line.members[1], nullptr);
}

TEST(LoggingRollback, CountsReplayedDeliveries) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0));
  log.append(make(1, 0, 0));
  log.append(make(1, 1, 10));
  MessageLog messages;
  messages.note_delivery({1, 0, 1, 2, 5, 0});  // before the checkpoint: not replayed
  messages.note_delivery({2, 0, 1, 4, 12, 0});  // between checkpoint and failure: replayed
  messages.note_delivery({3, 0, 1, 6, 30, 0});  // after the failure position: not replayed
  const auto result = logging_rollback(log, messages, {40, 20}, 1);
  EXPECT_EQ(result.replayed_deliveries, 1u);
}

TEST(LoggingRollback, Validation) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0));
  log.append(make(1, 0, 0));
  MessageLog messages;
  EXPECT_THROW(logging_rollback(log, messages, {1}, 0), std::invalid_argument);
  EXPECT_THROW(logging_rollback(log, messages, {1, 1}, 7), std::invalid_argument);
}

TEST(LogStorage, CollectsMessagesInsideTheStableLine) {
  MessageLog messages;
  messages.note_delivery({1, 0, 1, 2, 3, 0});  // fully inside
  messages.note_delivery({2, 0, 1, 8, 4, 0});  // send outside (8 > 5)
  messages.note_delivery({3, 1, 0, 2, 9, 0});  // receive outside (9 > 5)
  GlobalCheckpoint stable;
  stable.pos = {5, 5};
  stable.members = {nullptr, nullptr};
  const auto stats = log_storage_stats(messages, stable, 100);
  EXPECT_EQ(stats.messages_logged, 3u);
  EXPECT_EQ(stats.bytes_logged, 300u);
  EXPECT_EQ(stats.messages_collectible, 1u);
  EXPECT_EQ(stats.bytes_collectible, 100u);
}

TEST(LoggingIntegration, LoggingBeatsPlainRollbackForSingleFailures) {
  sim::SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 0.8;
  cfg.seed = 17;
  sim::ExperimentOptions opts;
  opts.protocols = {ProtocolKind::kQbc};
  sim::Experiment exp(cfg, opts);
  exp.run();
  const auto fail_pos = exp.harness().current_positions();
  const auto& messages = exp.harness().message_log();
  for (net::HostId failed = 0; failed < exp.network().n_hosts(); ++failed) {
    const auto with_logs = logging_rollback(exp.log(0), messages, fail_pos, failed);
    const auto plain = rollback_to_consistent(exp.log(0), messages, fail_pos, failed);
    // Logging confines the rollback to the failed host, so it can never
    // undo more than the consistent-cut rollback.
    EXPECT_LE(with_logs.rollback.undone_events(), plain.undone_events()) << "host " << failed;
    // And its log GC keeps up: most messages are collectible by the end.
    const auto gc = analyze_gc(exp.log(0), IndexLineRule::kLastEqual, exp.network().n_mss());
    const auto logs = log_storage_stats(messages, gc.stable_line, 256);
    EXPECT_GT(logs.messages_collectible * 10, logs.messages_logged * 5);  // > 50%
  }
}

}  // namespace
}  // namespace mobichk::core
