#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/json.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

namespace mobichk::sim {
namespace {

SimConfig small_config(u64 seed = 1) {
  SimConfig cfg;
  cfg.sim_length = 5'000.0;
  cfg.t_switch = 500.0;
  cfg.p_switch = 0.8;
  cfg.seed = seed;
  return cfg;
}

TEST(Experiment, ProducesAllRequestedProtocols) {
  const RunResult r = run_experiment(small_config());
  ASSERT_EQ(r.protocols.size(), 3u);
  EXPECT_EQ(r.protocols[0].name, "TP");
  EXPECT_EQ(r.protocols[1].name, "BCS");
  EXPECT_EQ(r.protocols[2].name, "QBC");
  EXPECT_EQ(r.by_name("QBC").name, "QBC");
  EXPECT_THROW(r.by_name("nope"), std::out_of_range);
}

TEST(Experiment, NTotEqualsBasicPlusForced) {
  const RunResult r = run_experiment(small_config());
  for (const auto& p : r.protocols) {
    EXPECT_EQ(p.n_tot, p.basic + p.forced);
    EXPECT_EQ(p.total, p.n_tot + p.initial);
    EXPECT_EQ(p.initial, 10u);
  }
}

TEST(Experiment, BasicCheckpointsEqualMobilityEvents) {
  // Every handoff and every disconnection must yield exactly one basic
  // checkpoint in each of the paper's protocols.
  const RunResult r = run_experiment(small_config());
  const u64 mobility_events = r.net.handoffs + r.net.disconnects;
  for (const auto& p : r.protocols) {
    EXPECT_EQ(p.basic, mobility_events) << p.name;
  }
}

TEST(Experiment, SameSeedSameResult) {
  ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const RunResult a = run_experiment(small_config(42), opts);
  const RunResult b = run_experiment(small_config(42), opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_NE(a.trace_hash, 0u);
  for (usize i = 0; i < a.protocols.size(); ++i) {
    EXPECT_EQ(a.protocols[i].n_tot, b.protocols[i].n_tot);
    EXPECT_EQ(a.protocols[i].max_index, b.protocols[i].max_index);
  }
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const RunResult a = run_experiment(small_config(1), opts);
  const RunResult b = run_experiment(small_config(2), opts);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(Experiment, QueueImplementationsProduceIdenticalRuns) {
  ExperimentOptions heap_opts, cal_opts;
  heap_opts.collect_trace_hash = true;
  heap_opts.queue_kind = des::QueueKind::kBinaryHeap;
  cal_opts.collect_trace_hash = true;
  cal_opts.queue_kind = des::QueueKind::kCalendar;
  const RunResult a = run_experiment(small_config(9), heap_opts);
  const RunResult b = run_experiment(small_config(9), cal_opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  for (usize i = 0; i < a.protocols.size(); ++i) {
    EXPECT_EQ(a.protocols[i].n_tot, b.protocols[i].n_tot);
  }
}

TEST(Experiment, PairedObserversMatchSoloRuns) {
  // Running BCS alongside TP and QBC must give exactly the same counts as
  // running BCS alone: observers cannot perturb the trace.
  ExperimentOptions solo;
  solo.protocols = {core::ProtocolKind::kBcs};
  ExperimentOptions paired;  // default TP, BCS, QBC
  const RunResult a = run_experiment(small_config(5), solo);
  const RunResult b = run_experiment(small_config(5), paired);
  EXPECT_EQ(a.by_name("BCS").n_tot, b.by_name("BCS").n_tot);
  EXPECT_EQ(a.by_name("BCS").forced, b.by_name("BCS").forced);
  EXPECT_EQ(a.by_name("BCS").max_index, b.by_name("BCS").max_index);
}

TEST(Experiment, StorageAccountingActivates) {
  // Every run prices its checkpoint logs; the plane need not be on.
  ExperimentOptions opts;
  opts.data_plane.full_state_bytes = 1000;
  const RunResult r = run_experiment(small_config(), opts);
  for (const auto& p : r.protocols) {
    EXPECT_GT(p.storage_wireless_bytes, 0u) << p.name;
  }
  // TP checkpoints more, so it must upload more checkpoint data.
  EXPECT_GT(r.by_name("TP").storage_wireless_bytes, r.by_name("BCS").storage_wireless_bytes);
}

TEST(Experiment, SlotZeroStorageEqualsTheDataPlaneUploads) {
  // One storage model: slot 0's log walk and the plane's uploads price
  // the same checkpoints with the same sizing, so the accounts agree.
  ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kBcs, core::ProtocolKind::kTp};
  opts.data_plane.enabled = true;
  opts.data_plane.full_state_bytes = 4096;
  opts.data_plane.dirty_rate = 0.002;
  const RunResult r = run_experiment(small_config(3), opts);
  ASSERT_TRUE(r.data_plane_enabled);
  EXPECT_EQ(r.protocols[0].total, r.data_plane.checkpoints);
  EXPECT_EQ(r.protocols[0].storage_wireless_bytes, r.data_plane.upload_bytes);
  EXPECT_GT(r.protocols[0].storage_wired_bytes, 0u);
}

TEST(Experiment, ZeroStateSizeIsRejectedWithThePlaneOff) {
  // The sizing prices storage_* on every run, so it is validated on
  // every run.
  ExperimentOptions opts;
  opts.data_plane.full_state_bytes = 0;
  ASSERT_FALSE(opts.data_plane.enabled);
  EXPECT_THROW(Experiment(small_config(), opts), std::invalid_argument);
}

TEST(Experiment, ConsistencyOracleFindsNoOrphans) {
  ExperimentOptions opts;
  opts.verify_consistency = true;
  const RunResult r = run_experiment(small_config(11), opts);
  for (const auto& p : r.protocols) {
    EXPECT_GT(p.lines_checked, 0u) << p.name;
    EXPECT_EQ(p.orphans_found, 0u) << p.name;
  }
}

TEST(Experiment, RunTwiceThrows) {
  Experiment exp(small_config(), ExperimentOptions{});
  exp.run();
  EXPECT_THROW(exp.run(), std::logic_error);
}

// A caller's trace sink receives exactly the records the trace hash
// folds, in merged order, alone or next to the hash: rehashing them
// reproduces result().trace_hash, sharded and with a crash and the data
// plane on.
TEST(Experiment, TraceSinkReceivesTheHashedTrace) {
  for (const bool crash : {false, true}) {
    SimConfig cfg = small_config(42);
    if (crash) cfg.faults.mode = CrashMode::kMhCrash;
    for (const u32 shards : {1u, 4u}) {
      ExperimentOptions opts;
      opts.shards = shards;
      opts.data_plane.enabled = crash;
      opts.collect_trace_hash = true;
      des::VectorSink teed;
      opts.trace_sink = &teed;
      const RunResult r = run_experiment(cfg, opts);
      opts.collect_trace_hash = false;
      des::VectorSink alone;
      opts.trace_sink = &alone;
      (void)run_experiment(cfg, opts);
      const std::string label =
          "shards=" + std::to_string(shards) + (crash ? " crash+plane" : "");
      ASSERT_FALSE(teed.records().empty()) << label;
      EXPECT_EQ(r.recovery.crashes_executed, crash ? 1u : 0u) << label;
      for (const des::VectorSink* sink : {&teed, &alone}) {
        des::HashSink rehash;
        for (const des::TraceRecord& rec : sink->records()) rehash.record(rec);
        EXPECT_EQ(rehash.hash(), r.trace_hash) << label;
      }
    }
  }
}

TEST(Experiment, SparseTpEncodedBytesBoundedByDense) {
  // TP's dense-equivalent counter must match the paper-literal cost, 2n
  // integers per message, exactly while the encoded bytes stay strictly
  // below it (deltas replace full vectors on every message). BCS/QBC
  // carry one integer, the same on both counters.
  const RunResult r = run_experiment(small_config());
  const u64 sent = r.net.app_sent;
  ASSERT_GT(sent, 0u);
  const auto& tp = r.by_name("TP");
  EXPECT_EQ(tp.piggyback_dense_bytes, sent * 2 * 10 * sizeof(u32));
  EXPECT_LT(tp.piggyback_bytes, tp.piggyback_dense_bytes);
  EXPECT_GT(tp.piggyback_bytes, 0u);
  EXPECT_EQ(r.by_name("BCS").piggyback_bytes, sent * sizeof(u64));
  EXPECT_EQ(r.by_name("BCS").piggyback_dense_bytes, sent * sizeof(u64));
  EXPECT_EQ(r.by_name("QBC").piggyback_bytes, sent * sizeof(u64));
}

TEST(Experiment, TpDeltaReordersReachTheRunResult) {
  // Fast movers on 5 MSSs deliver two of TP's per-pair deltas out of
  // sequence in this run (no chase forward is involved). The run result
  // carries TP's count, 0 for every other protocol, and the JSON report
  // writes and reads it back.
  SimConfig cfg;
  cfg.network.n_hosts = 24;
  cfg.network.n_mss = 5;
  cfg.sim_length = 2'000.0;
  cfg.t_switch = 60.0;
  cfg.p_switch = 0.9;
  cfg.seed = 114;
  ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kLazyBcs, core::ProtocolKind::kCoordinated,
                    core::ProtocolKind::kTp, core::ProtocolKind::kBcs, core::ProtocolKind::kQbc};
  const RunResult r = run_experiment(cfg, opts);
  EXPECT_EQ(r.net.chase_forwards, 0u);
  for (const ProtocolRunStats& p : r.protocols) {
    EXPECT_EQ(p.delta_reorders, p.kind == core::ProtocolKind::kTp ? 2u : 0u) << p.name;
  }
  std::ostringstream os;
  write_json(os, r);
  EXPECT_EQ(run_result_from_json(json_parse(os.str())).by_name("TP").delta_reorders, 2u);
}

TEST(Sweep, RunParallelPreservesJobOrderAndDeterminism) {
  std::vector<SimConfig> configs;
  for (u64 s = 1; s <= 6; ++s) configs.push_back(small_config(s));
  const auto parallel = run_parallel(configs, ExperimentOptions{}, 3);
  const auto serial = run_parallel(configs, ExperimentOptions{}, 1);
  ASSERT_EQ(parallel.size(), 6u);
  for (usize i = 0; i < 6; ++i) {
    EXPECT_EQ(parallel[i].cfg.seed, configs[i].seed);
    for (usize k = 0; k < 3; ++k) {
      EXPECT_EQ(parallel[i].protocols[k].n_tot, serial[i].protocols[k].n_tot);
    }
  }
}

TEST(Sweep, FigureAggregatesSeeds) {
  FigureSpec spec;
  spec.title = "test";
  spec.base = small_config();
  spec.t_switch_values = {200.0, 2000.0};
  spec.min_seeds = 3;
  spec.max_seeds = 3;  // fixed replication: every cell gets exactly 3
  const FigureResult result = run_figure(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_EQ(result.cells[0].size(), 3u);
  for (const auto& row : result.cells) {
    for (const auto& tally : row) EXPECT_EQ(tally.count(), 3u);
  }
  // More mobility at T_switch = 200 => more checkpoints for index-based
  // protocols.
  EXPECT_GT(result.mean(0, 1), result.mean(1, 1));
  // Gains are finite percentages.
  const f64 gain = result.gain_percent(0, 0, 1);
  EXPECT_GT(gain, 0.0);
  EXPECT_LT(gain, 100.0);
}

TEST(Sweep, FigurePrintAndCsv) {
  FigureSpec spec;
  spec.title = "print-test";
  spec.base = small_config();
  spec.t_switch_values = {500.0};
  spec.min_seeds = 2;
  spec.max_seeds = 2;
  const FigureResult result = run_figure(spec);
  std::ostringstream table, csv;
  result.print(table);
  result.write_csv(csv);
  EXPECT_NE(table.str().find("print-test"), std::string::npos);
  EXPECT_NE(table.str().find("QBC"), std::string::npos);
  EXPECT_NE(csv.str().find("t_switch,TP_mean"), std::string::npos);
  EXPECT_GE(result.max_relative_spread(), 0.0);
}

}  // namespace
}  // namespace mobichk::sim
