// Cross-shard determinism suite for the conservative parallel engine:
// the merged sharded run must be bit-identical to the sequential loop —
// same trace hash, same counters, same recovery stories — for every
// shard count, every queue kind, and every config family the figures
// exercise (mobility, disconnections, heterogeneity, crashes).
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "des/rng.hpp"
#include "des/shard_merge.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace mobichk::sim {
namespace {

/// The Figure 1 golden determinism anchor (same config as the CLI's
/// audit default and kernel_smoke's fig1 point).
constexpr u64 kGoldenFig1Hash = 0xd165928ffbf08bb4ull;

SimConfig golden_config() {
  SimConfig cfg;
  cfg.sim_length = 50'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  return cfg;
}

RunResult run_with(const SimConfig& cfg, u32 shards,
                   des::QueueKind queue = des::QueueKind::kBinaryHeap) {
  ExperimentOptions opts;
  opts.collect_trace_hash = true;
  opts.queue_kind = queue;
  opts.shards = shards;
  return run_experiment(cfg, opts);
}

/// Everything deterministic in a RunResult must agree between the
/// sequential and the merged sharded run (wall clock and barrier stall
/// are explicitly excluded — they are host-time measurements).
void expect_identical(const RunResult& seq, const RunResult& par, const std::string& label) {
  EXPECT_EQ(par.cross_shard_ties, 0u) << label;
  EXPECT_EQ(seq.trace_hash, par.trace_hash) << label;
  EXPECT_EQ(seq.events_executed, par.events_executed) << label;
  EXPECT_EQ(seq.workload_ops, par.workload_ops) << label;
  EXPECT_EQ(seq.net.app_sent, par.net.app_sent) << label;
  EXPECT_EQ(seq.net.handoffs, par.net.handoffs) << label;
  EXPECT_EQ(seq.net.disconnects, par.net.disconnects) << label;
  ASSERT_EQ(seq.protocols.size(), par.protocols.size()) << label;
  for (usize i = 0; i < seq.protocols.size(); ++i) {
    const ProtocolRunStats& a = seq.protocols[i];
    const ProtocolRunStats& b = par.protocols[i];
    EXPECT_EQ(a.n_tot, b.n_tot) << label << " " << a.name;
    EXPECT_EQ(a.basic, b.basic) << label << " " << a.name;
    EXPECT_EQ(a.forced, b.forced) << label << " " << a.name;
    EXPECT_EQ(a.max_index, b.max_index) << label << " " << a.name;
    EXPECT_EQ(a.piggyback_bytes, b.piggyback_bytes) << label << " " << a.name;
    EXPECT_EQ(a.piggyback_dense_bytes, b.piggyback_dense_bytes) << label << " " << a.name;
    EXPECT_EQ(a.control_messages, b.control_messages) << label << " " << a.name;
    EXPECT_EQ(a.storage_wireless_bytes, b.storage_wireless_bytes) << label << " " << a.name;
    EXPECT_EQ(a.storage_wired_bytes, b.storage_wired_bytes) << label << " " << a.name;
    EXPECT_EQ(a.storage_transfers, b.storage_transfers) << label << " " << a.name;
  }
  // Recovery stories: same crashes, same rollback, same replay.
  EXPECT_EQ(seq.recovery.crashes_executed, par.recovery.crashes_executed) << label;
  EXPECT_EQ(seq.recovery.hosts_rolled_back, par.recovery.hosts_rolled_back) << label;
  EXPECT_EQ(seq.recovery.undone_events, par.recovery.undone_events) << label;
  EXPECT_EQ(seq.recovery.replayed_messages, par.recovery.replayed_messages) << label;
  EXPECT_EQ(seq.recovery.checkpoints_discarded, par.recovery.checkpoints_discarded) << label;
  EXPECT_DOUBLE_EQ(seq.recovery.total_recovery_time, par.recovery.total_recovery_time) << label;
}

TEST(Sharded, GoldenFig1HashEveryShardCount) {
  for (const u32 shards : {1u, 2u, 4u, 8u}) {
    const RunResult r = run_with(golden_config(), shards);
    EXPECT_EQ(r.trace_hash, kGoldenFig1Hash) << "shards=" << shards;
    EXPECT_EQ(r.by_name("TP").n_tot, 5'365u) << "shards=" << shards;
    EXPECT_EQ(r.by_name("BCS").n_tot, 1'788u) << "shards=" << shards;
    EXPECT_EQ(r.by_name("QBC").n_tot, 1'598u) << "shards=" << shards;
    EXPECT_EQ(r.shards, std::min(shards, 5u));  // clamped to n_mss = 5
    EXPECT_TRUE(r.invariants_ok) << "shards=" << shards;
    if (shards > 1) {
      EXPECT_GT(r.sync_rounds, 0u) << "shards=" << shards;
    }
    EXPECT_EQ(r.cross_shard_ties, 0u) << "shards=" << shards;
  }
}

TEST(Sharded, BarrierMergeCountsAnEqualTimeTie) {
  // Three shard journals with one equal-time pair, across shards 0 and
  // 2: the merge emits in (time, shard) order, the lower shard first on
  // the tie, and counts exactly that one pick.
  const std::vector<std::vector<des::Time>> journals{{1.0, 3.0}, {2.0}, {3.0, 4.0}};
  std::vector<std::pair<usize, des::Time>> order;
  const u64 ties = des::merge_shard_journals(
      journals.size(), [&](usize s) -> auto& { return journals[s]; },
      [](des::Time t) { return t; }, [&](usize s, des::Time t) { order.emplace_back(s, t); });
  EXPECT_EQ(ties, 1u);
  const std::vector<std::pair<usize, des::Time>> want{
      {0, 1.0}, {1, 2.0}, {0, 3.0}, {2, 3.0}, {2, 4.0}};
  EXPECT_EQ(order, want);
}

TEST(Sharded, GoldenFig1HashEveryQueueKind) {
  for (const des::QueueKind queue : des::kAllQueueKinds) {
    const RunResult r = run_with(golden_config(), 4, queue);
    EXPECT_EQ(r.trace_hash, kGoldenFig1Hash) << des::queue_kind_name(queue);
  }
}

TEST(Sharded, DataPlaneOnIdenticalAcrossShardsAndQueues) {
  // With the checkpoint data plane pricing every checkpoint and migrating
  // images on handoff, the journaled merge must still reproduce the
  // sequential run exactly: same trace hash (the kCheckpointTransfer
  // completions land at identical times) and the same byte/stall/locality
  // accounting, for every (queue kind x shard count) pair.
  SimConfig cfg = golden_config();
  cfg.sim_length = 5'000.0;
  const auto run_plane = [&](u32 shards, des::QueueKind queue) {
    ExperimentOptions opts;
    opts.collect_trace_hash = true;
    opts.queue_kind = queue;
    opts.shards = shards;
    opts.data_plane.enabled = true;
    return run_experiment(cfg, opts);
  };
  const RunResult seq = run_plane(1, des::QueueKind::kBinaryHeap);
  ASSERT_TRUE(seq.data_plane_enabled);
  ASSERT_GT(seq.data_plane.checkpoints, 0u);
  ASSERT_GT(seq.data_plane.migrations, 0u);
  for (const des::QueueKind queue : des::kAllQueueKinds) {
    for (const u32 shards : {1u, 2u, 4u, 5u}) {
      const std::string label = std::string("plane-on ") + des::queue_kind_name(queue) +
                                " shards=" + std::to_string(shards);
      const RunResult par = run_plane(shards, queue);
      expect_identical(seq, par, label);
      const storage::DataPlaneStats& a = seq.data_plane;
      const storage::DataPlaneStats& b = par.data_plane;
      EXPECT_EQ(a.checkpoints, b.checkpoints) << label;
      EXPECT_EQ(a.upload_bytes, b.upload_bytes) << label;
      EXPECT_EQ(a.full_bytes, b.full_bytes) << label;
      EXPECT_EQ(a.transfers_completed, b.transfers_completed) << label;
      EXPECT_DOUBLE_EQ(a.transfer_time, b.transfer_time) << label;
      EXPECT_DOUBLE_EQ(a.queue_delay, b.queue_delay) << label;
      EXPECT_EQ(a.migrations, b.migrations) << label;
      EXPECT_EQ(a.migration_bytes, b.migration_bytes) << label;
      EXPECT_DOUBLE_EQ(a.migration_copy_time, b.migration_copy_time) << label;
      EXPECT_DOUBLE_EQ(a.migration_stall, b.migration_stall) << label;
      EXPECT_EQ(a.locality_samples, b.locality_samples) << label;
      EXPECT_EQ(a.locality_hops, b.locality_hops) << label;
    }
  }
}

TEST(Sharded, FigureConfigFamiliesMatchSequential) {
  // One config per figure axis the paper sweeps: high mobility (Fig.1
  // left edge), disconnections (Fig.3/4), heterogeneity (Fig.5/6), plus
  // the ring and Pareto mobility extensions. Short horizon, full
  // RunResult equality at a non-power-of-two shard count.
  struct Variant {
    const char* label;
    void (*tweak)(SimConfig&);
  };
  const Variant variants[] = {
      {"high-mobility", [](SimConfig& c) { c.t_switch = 100.0; }},
      {"disconnections", [](SimConfig& c) { c.p_switch = 0.6; }},
      {"heterogeneity", [](SimConfig& c) { c.heterogeneity = 0.4; }},
      {"ring-mobility", [](SimConfig& c) { c.mobility_model = MobilityModelKind::kRingNeighbor; }},
      {"pareto-residence",
       [](SimConfig& c) { c.mobility_model = MobilityModelKind::kParetoResidence; }},
  };
  for (const Variant& v : variants) {
    SimConfig cfg = golden_config();
    cfg.sim_length = 5'000.0;
    cfg.seed = 7;
    v.tweak(cfg);
    const RunResult seq = run_with(cfg, 1);
    const RunResult par = run_with(cfg, 3);
    expect_identical(seq, par, v.label);
  }
}

TEST(Sharded, HandoffDuringFlightWithCrashes) {
  // Fast switching (T_switch = 200) keeps messages in flight across
  // handoffs constantly; independent MH crashes then force rollback and
  // replay through the sharded merge path. The recovery story must come
  // out identical to the sequential engine.
  SimConfig cfg = golden_config();
  cfg.sim_length = 6'000.0;
  cfg.t_switch = 200.0;
  cfg.seed = 11;
  cfg.faults.mode = CrashMode::kMhCrash;
  cfg.faults.first_crash_at = 1'500.0;
  cfg.faults.crash_interval = 1'200.0;
  cfg.faults.max_crashes = 3;
  const RunResult seq = run_with(cfg, 1);
  ASSERT_GT(seq.recovery.crashes_executed, 0u);
  ASSERT_GT(seq.recovery.undone_events, 0u);
  for (const u32 shards : {2u, 5u}) {
    const RunResult par = run_with(cfg, shards);
    expect_identical(seq, par, "mh-crash shards=" + std::to_string(shards));
  }
}

TEST(Sharded, CellOutageCrashInterleaving) {
  // A cell outage kills every host attached to one MSS at once — the
  // crash, the rollbacks, and the replays all land inside a single
  // shard's cell while neighbours keep sending into it.
  SimConfig cfg = golden_config();
  cfg.sim_length = 6'000.0;
  cfg.t_switch = 500.0;
  cfg.seed = 13;
  cfg.faults.mode = CrashMode::kCellOutage;
  cfg.faults.first_crash_at = 1'000.0;
  cfg.faults.crash_interval = 900.0;
  cfg.faults.max_crashes = 4;  // random cells; an empty cell is a skip, not a miss
  const RunResult seq = run_with(cfg, 1);
  ASSERT_GT(seq.recovery.crashes_executed, 0u);
  const RunResult par = run_with(cfg, 4);
  expect_identical(seq, par, "cell-outage");
}

TEST(Sharded, MessageLogMatchesSequentialDeliveryForDelivery) {
  // The merged message log is what rollback and the orphan oracle read.
  // Each delivery's send record comes off the delivered message and its
  // id from the barrier's patch sites, so every field must equal the
  // sequential run's, delivery for delivery, with and without crashes.
  SimConfig plain = golden_config();
  plain.sim_length = 6'000.0;
  plain.t_switch = 200.0;
  SimConfig crashes = plain;
  crashes.faults.mode = CrashMode::kMhCrash;
  crashes.faults.first_crash_at = 1'500.0;
  crashes.faults.crash_interval = 1'200.0;
  crashes.faults.max_crashes = 3;
  const auto key = [](const core::MessageLog::Delivery& d) {
    return std::make_tuple(d.msg_id, d.src, d.dst, d.send_pos, d.recv_pos, d.sn);
  };
  for (const SimConfig& cfg : {plain, crashes}) {
    const std::string label = cfg.faults.enabled() ? "mh-crash" : "plain";
    ExperimentOptions par_opts;
    par_opts.shards = 4;
    Experiment seq(cfg, ExperimentOptions{});
    Experiment par(cfg, par_opts);
    seq.run();
    par.run();
    ASSERT_EQ(par.result().shards, 4u) << label;
    if (cfg.faults.enabled()) {
      ASSERT_GT(seq.result().recovery.crashes_executed, 0u);
    }
    const auto& a = seq.harness().message_log().deliveries();
    const auto& b = par.harness().message_log().deliveries();
    ASSERT_GT(a.size(), 100u) << label;
    ASSERT_EQ(a.size(), b.size()) << label;
    for (usize i = 0; i < a.size(); ++i) {
      ASSERT_EQ(key(a[i]), key(b[i])) << label << " delivery " << i;
    }
  }
}

TEST(Sharded, FuzzShardCountPerReplication) {
  // Each replication draws its own shard count; the merged result must
  // match the sequential run of the same seed exactly, so a figure built
  // from mixed shard counts is identical to one built sequentially.
  des::RngStream rng(99, "shard-fuzz");
  for (u64 seed = 1; seed <= 8; ++seed) {
    SimConfig cfg = golden_config();
    cfg.sim_length = 4'000.0;
    cfg.t_switch = 400.0;
    cfg.p_switch = 0.9;
    cfg.seed = seed;
    const u32 shards = 2 + static_cast<u32>(rng.uniform01() * 7.0);  // 2..8
    const RunResult seq = run_with(cfg, 1);
    const RunResult par = run_with(cfg, shards);
    expect_identical(seq, par,
                     "seed=" + std::to_string(seed) + " shards=" + std::to_string(shards));
  }
}

TEST(Sharded, FigureResultIdenticalToSequential) {
  // The satellite's end-to-end claim: an adaptive figure sweep run
  // entirely under the sharded engine reports the same cells as the
  // sequential engine (same means, same replication counts).
  FigureSpec spec;
  spec.title = "sharded-figure";
  spec.base = golden_config();
  spec.base.sim_length = 3'000.0;
  spec.t_switch_values = {300.0, 1'500.0};
  spec.min_seeds = 3;
  spec.max_seeds = 3;
  ExperimentOptions seq_opts, par_opts;
  par_opts.shards = 4;
  const FigureResult seq = run_figure(spec, seq_opts, 2);
  const FigureResult par = run_figure(spec, par_opts, 2);
  ASSERT_EQ(seq.cells.size(), par.cells.size());
  for (usize p = 0; p < seq.cells.size(); ++p) {
    ASSERT_EQ(seq.cells[p].size(), par.cells[p].size());
    for (usize k = 0; k < seq.cells[p].size(); ++k) {
      EXPECT_EQ(seq.cells[p][k].count(), par.cells[p][k].count()) << p << "/" << k;
      EXPECT_DOUBLE_EQ(seq.cells[p][k].mean(), par.cells[p][k].mean()) << p << "/" << k;
    }
  }
}

TEST(Sharded, ShardCountClampedToCells) {
  SimConfig cfg = golden_config();
  cfg.sim_length = 2'000.0;
  const RunResult r = run_with(cfg, 64);  // default network has 5 MSSs
  EXPECT_EQ(r.shards, 5u);
  EXPECT_EQ(r.trace_hash, run_with(cfg, 1).trace_hash);
}

TEST(Sharded, ObserverRejectedUnderSharding) {
  obs::RunObserver observer;
  ExperimentOptions opts;
  opts.shards = 2;
  opts.observer = &observer;
  SimConfig cfg = golden_config();
  cfg.sim_length = 1'000.0;
  EXPECT_THROW(Experiment(cfg, opts), std::invalid_argument);
}

}  // namespace
}  // namespace mobichk::sim
