// Exhaustive small-model checks: on tiny runs, enumerate *every* global
// checkpoint made of stored checkpoints and verify
//   (1) the orphan oracle and the vector-clock oracle agree on each one,
//   (2) rollback_to_consistent returns the componentwise maximum of all
//       consistent cuts below the failure — the lattice-supremum claim,
//       checked against brute force.
#include <gtest/gtest.h>

#include "core/recovery.hpp"
#include "sim/experiment.hpp"
#include "../core/vc_oracle.hpp"

namespace mobichk::sim {
namespace {

SimConfig tiny_config(u64 seed) {
  SimConfig cfg;
  cfg.network.n_hosts = 3;
  cfg.network.n_mss = 2;
  cfg.sim_length = 600.0;
  cfg.t_switch = 60.0;  // brisk mobility so checkpoints accumulate
  cfg.p_switch = 0.8;
  cfg.disconnect_mean = 50.0;
  cfg.comm_mean = 8.0;
  cfg.seed = seed;
  return cfg;
}

class ExhaustiveCuts : public ::testing::TestWithParam<u64> {};

TEST_P(ExhaustiveCuts, OraclesAgreeOnEveryCheckpointCombination) {
  ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kBcs};
  Experiment exp(tiny_config(GetParam()), opts);
  exp.run();
  const auto& log = exp.log(0);
  const auto& messages = exp.harness().message_log();
  const core::VcOracle vc(3, messages);

  // Cap the enumeration so a busy seed cannot explode the test.
  const u64 c0 = std::min<u64>(log.count(0), 8);
  const u64 c1 = std::min<u64>(log.count(1), 8);
  const u64 c2 = std::min<u64>(log.count(2), 8);
  ASSERT_GE(c0 * c1 * c2, 8u) << "trivial run; adjust the config";

  u64 consistent_cuts = 0;
  for (u64 a = 0; a < c0; ++a) {
    for (u64 b = 0; b < c1; ++b) {
      for (u64 c = 0; c < c2; ++c) {
        core::GlobalCheckpoint cut;
        cut.members = {log.by_ordinal(0, a), log.by_ordinal(1, b), log.by_ordinal(2, c)};
        cut.pos = {cut.members[0]->event_pos, cut.members[1]->event_pos,
                   cut.members[2]->event_pos};
        const bool by_orphans = core::find_orphans(messages, cut).empty();
        ASSERT_EQ(by_orphans, vc.consistent(cut))
            << "cut (" << a << "," << b << "," << c << ")";
        consistent_cuts += by_orphans;
      }
    }
  }
  // The all-initial cut is always consistent.
  EXPECT_GE(consistent_cuts, 1u);
}

TEST_P(ExhaustiveCuts, RollbackIsTheLatticeSupremum) {
  ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kBcs};
  Experiment exp(tiny_config(GetParam()), opts);
  exp.run();
  const auto& log = exp.log(0);
  const auto& messages = exp.harness().message_log();
  const auto fail_pos = exp.harness().current_positions();

  const auto result = core::rollback_to_consistent(log, messages, fail_pos);

  // Brute force: the componentwise maximum consistent checkpoint cut.
  std::vector<u64> best(3, 0);
  bool found = false;
  for (u64 a = 0; a < log.count(0); ++a) {
    for (u64 b = 0; b < log.count(1); ++b) {
      for (u64 c = 0; c < log.count(2); ++c) {
        core::GlobalCheckpoint cut;
        cut.members = {log.by_ordinal(0, a), log.by_ordinal(1, b), log.by_ordinal(2, c)};
        cut.pos = {cut.members[0]->event_pos, cut.members[1]->event_pos,
                   cut.members[2]->event_pos};
        if (cut.pos[0] > fail_pos[0] || cut.pos[1] > fail_pos[1] || cut.pos[2] > fail_pos[2]) {
          continue;
        }
        if (!core::find_orphans(messages, cut).empty()) continue;
        found = true;
        // Consistent cuts form a lattice: the supremum is reached
        // componentwise.
        for (usize h = 0; h < 3; ++h) best[h] = std::max(best[h], cut.pos[h]);
      }
    }
  }
  ASSERT_TRUE(found);
  for (usize h = 0; h < 3; ++h) {
    EXPECT_EQ(result.line.pos[h], best[h]) << "host " << h;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveCuts, ::testing::Values(11, 22, 33, 44, 55),
                         [](const ::testing::TestParamInfo<u64>& pi) {
                           return "seed" + std::to_string(pi.param);
                         });

}  // namespace
}  // namespace mobichk::sim
