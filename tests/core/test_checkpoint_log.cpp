#include "core/checkpoint_log.hpp"

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

TEST(CheckpointRecord, StaysWithinItsSizeBudget) {
  // A run keeps one record per checkpoint until it ends (about 56 k in one
  // Fig.1 run at T_switch=100), so the record's size shows in the figure
  // sweep's peak RSS. 96 B is the layout with one dependency list.
  if constexpr (sizeof(void*) == 8) {
    EXPECT_LE(sizeof(CheckpointRecord), 96u);
  }
}

TEST(CheckpointLog, AssignsOrdinalsPerHost) {
  CheckpointLog log(2);
  EXPECT_EQ(log.append(make(0, 0, 0)).ordinal, 0u);
  EXPECT_EQ(log.append(make(1, 0, 0)).ordinal, 0u);
  EXPECT_EQ(log.append(make(0, 1, 5)).ordinal, 1u);
  EXPECT_EQ(log.count(0), 2u);
  EXPECT_EQ(log.count(1), 1u);
}

TEST(CheckpointLog, CountsByKind) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 2, CheckpointKind::kBasic));
  log.append(make(0, 2, 4, CheckpointKind::kForced));
  log.append(make(0, 3, 6, CheckpointKind::kForced));
  EXPECT_EQ(log.total(), 4u);
  EXPECT_EQ(log.initial(), 1u);
  EXPECT_EQ(log.basic(), 1u);
  EXPECT_EQ(log.forced(), 2u);
  EXPECT_EQ(log.n_tot(), 3u);  // excludes initial
}

TEST(CheckpointLog, ByOrdinal) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 3, 9));
  EXPECT_EQ(log.by_ordinal(0, 1)->sn, 3u);
  EXPECT_EQ(log.by_ordinal(0, 2), nullptr);
}

TEST(CheckpointLog, FirstWithSnAtLeastHandlesJumps) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 2, 4));  // jump over 1
  log.append(make(0, 5, 8));
  EXPECT_EQ(log.first_with_sn_at_least(0, 0)->sn, 0u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 1)->sn, 2u);  // first greater
  EXPECT_EQ(log.first_with_sn_at_least(0, 2)->sn, 2u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 3)->sn, 5u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 6), nullptr);
}

TEST(CheckpointLog, LastWithSnFindsReplacements) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 0, 3));  // QBC-style replacement
  log.append(make(0, 0, 7));
  log.append(make(0, 1, 9));
  EXPECT_EQ(log.last_with_sn(0, 0)->event_pos, 7u);
  EXPECT_EQ(log.last_with_sn(0, 1)->event_pos, 9u);
  EXPECT_EQ(log.last_with_sn(0, 2), nullptr);
}

TEST(CheckpointLog, LastAtOrBeforePos) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 1, 10));
  log.append(make(0, 2, 20));
  EXPECT_EQ(log.last_at_or_before_pos(0, 0)->sn, 0u);
  EXPECT_EQ(log.last_at_or_before_pos(0, 9)->sn, 0u);
  EXPECT_EQ(log.last_at_or_before_pos(0, 10)->sn, 1u);
  EXPECT_EQ(log.last_at_or_before_pos(0, 100)->sn, 2u);
}

TEST(CheckpointLog, MaxSnPerHostAndGlobal) {
  CheckpointLog log(3);
  log.append(make(0, 4, 1));
  log.append(make(1, 7, 1));
  EXPECT_EQ(log.max_sn(0), 4u);
  EXPECT_EQ(log.max_sn(1), 7u);
  EXPECT_EQ(log.max_sn(2), 0u);
  EXPECT_EQ(log.max_sn(), 7u);
}

TEST(CheckpointLog, PromoteSnRelabelsLast) {
  CheckpointLog log(1);
  log.append(make(0, 1, 5));
  log.promote_sn(0, 4);
  EXPECT_EQ(log.of(0).back().sn, 4u);
  EXPECT_EQ(log.last_with_sn(0, 4)->event_pos, 5u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 2)->sn, 4u);
}

}  // namespace
}  // namespace mobichk::core
