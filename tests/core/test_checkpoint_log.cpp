#include "core/checkpoint_log.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "des/rng.hpp"
#include "des/lane.hpp"

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
  // sweep's peak RSS. 64 B is the layout whose dependency snapshot is a
  // pointer into the log's arena plus two counts, with the fields ordered
  // from 8-byte to 1-byte ones (declaration order with padding read 80).
  if constexpr (sizeof(void*) == 8) {
    EXPECT_LE(sizeof(CheckpointRecord), 64u);
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

/// Stores `model` as an encoded snapshot in `log` and appends a record
/// pointing at it.
const CheckpointRecord& append_snapshot(CheckpointLog& log, net::HostId host, u64 pos,
                                        const std::map<u32, net::DepEntry>& model) {
  std::vector<net::DepEntry> list;
  for (const auto& [h, e] : model) list.push_back(e);
  const std::vector<u8> bytes = net::encode_deps(list);
  CheckpointRecord rec = make(host, pos, pos);
  rec.dep_bytes = log.store_deps(bytes.data(), bytes.size());
  rec.dep_count = static_cast<u32>(list.size());
  rec.dep_rank = log.n_hosts();
  return log.append(rec);
}

TEST(CheckpointLog, ArenaBackedDepsMatchAMapModel) {
  // Snapshots of every density, stored through the coordinator lane and
  // two shard lanes and spanning many arena blocks, read back through
  // dep_ckpt_at / dep_loc_at for every host id once all are stored.
  constexpr u32 kHosts = 700;
  CheckpointLog log(kHosts);
  log.enable_sharding(2);
  des::RngStream rng(5, "dep-arena");
  std::vector<std::map<u32, net::DepEntry>> models;
  std::vector<const CheckpointRecord*> recs;
  for (u32 i = 0; i < 90; ++i) {
    des::tls_lane = des::Lane{i % 3, nullptr};
    std::map<u32, net::DepEntry> model;
    const u64 keep = 1 + i % 10;  // about keep/10 of the hosts
    for (u32 h = 0; h < kHosts; ++h) {
      if (rng.next_u64() % 10 >= keep) continue;
      const auto ckpt = static_cast<u32>(rng.next_u64() % (i % 2 == 0 ? 100 : 1u << 30));
      model[h] = {h, ckpt, static_cast<u32>(rng.next_u64() % 1000)};
    }
    recs.push_back(&append_snapshot(log, i % kHosts, i, model));
    models.push_back(std::move(model));
  }
  des::tls_lane = des::Lane{};
  for (usize i = 0; i < recs.size(); ++i) {
    ASSERT_EQ(recs[i]->dep_count, models[i].size());
    for (u32 h = 0; h < kHosts; ++h) {
      const auto it = models[i].find(h);
      EXPECT_EQ(recs[i]->dep_ckpt_at(h), it == models[i].end() ? 0u : it->second.ckpt)
          << "record " << i << " host " << h;
      EXPECT_EQ(recs[i]->dep_loc_at(h), it == models[i].end() ? 0u : it->second.loc)
          << "record " << i << " host " << h;
    }
  }
}

TEST(CheckpointLog, SnapshotLargerThanABlockGetsItsOwn) {
  // 8000 entries of about 11 bytes each: past one 64 KiB block. Small
  // snapshots around it keep sharing the open block.
  constexpr u32 kHosts = 8000;
  CheckpointLog log(kHosts);
  std::map<u32, net::DepEntry> small{{3, {3, 1, 2}}};
  std::map<u32, net::DepEntry> big;
  for (u32 h = 0; h < kHosts; ++h) big[h] = {h, (1u << 29) + h, (1u << 28) + h};
  const CheckpointRecord& a = append_snapshot(log, 0, 0, small);
  const CheckpointRecord& b = append_snapshot(log, 1, 0, big);
  const CheckpointRecord& c = append_snapshot(log, 2, 0, small);
  EXPECT_EQ(c.dep_bytes, a.dep_bytes + 3) << "the open block keeps its free space";
  u32 h = 0;
  for (net::DepReader in = b.deps(); !in.done(); ++h) {
    const net::DepEntry e = in.next();
    ASSERT_EQ(e.host, h);
    ASSERT_EQ(e.ckpt, (1u << 29) + h);
    ASSERT_EQ(e.loc, (1u << 28) + h);
  }
  EXPECT_EQ(h, kHosts);
  EXPECT_EQ(a.dep_ckpt_at(3), 1u);
  EXPECT_EQ(c.dep_loc_at(3), 2u);
}

}  // namespace
}  // namespace mobichk::core
