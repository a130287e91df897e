// FIG-DATAPLANE: the checkpoint data plane measured — what the bytes
// cost, where they live, and what recovery pays to get them back.
//
// Four panels, all through the adaptive-precision sweep engine (each cell
// replicated until its 95% CI is tight, like the paper figures), using
// FigureSpec::metric to aggregate data-plane quantities instead of N_tot:
//
//  1. migration stall vs T_switch — pre-copy vs post-copy phase
//     accounting per handoff (faster mobility = more migrations, but the
//     per-handoff stall is set by the residual dirty set).
//  2. recovery-data locality vs T_switch under migration=none — the image
//     stays where the first checkpoint wrote it, so the mean wired
//     distance host -> recovery bytes grows as hosts drift.
//  3. stall / locality vs P_switch — per-value adaptive sweeps at fixed
//     T_switch (lower P_switch = fewer real switches).
//  4. mean checkpoint size vs checkpoint rate — dirty-delta incremental
//     uploads against dense full snapshots as T_switch (and with it the
//     basic-checkpoint rate) varies.
//
// A final single-run demonstration injects a mid-run crash on a line
// topology and prints how the executed recovery time stretches with the
// placement distance and storage contention (migration=none vs precopy).
//
// Flags: the usual sweep set plus --out=PATH to write every panel as one
// JSON document (BENCH_dataplane.json in CI).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "mobichk.hpp"

namespace {

using namespace mobichk;

struct Panel {
  std::string name;
  std::vector<f64> x;       ///< Swept parameter values.
  std::vector<f64> mean;    ///< Metric mean per point.
  std::vector<f64> ci95;    ///< Half-width per point.
  std::vector<u64> seeds;   ///< Replications accepted per point.
};

Panel panel_from(const std::string& name, const sim::FigureResult& result,
                 const std::vector<f64>& x) {
  Panel panel;
  panel.name = name;
  panel.x = x;
  for (usize p = 0; p < result.cells.size(); ++p) {
    const des::Tally& tally = result.cells[p][0];
    panel.mean.push_back(tally.mean());
    panel.ci95.push_back(des::confidence_half_width(tally, 0.95));
    panel.seeds.push_back(result.seeds_used[p]);
  }
  return panel;
}

void print_panel(const Panel& panel, const char* x_name, const char* metric_name) {
  std::printf("\n%s\n%12s %14s %12s %6s\n", panel.name.c_str(), x_name, metric_name, "ci95",
              "reps");
  for (usize p = 0; p < panel.x.size(); ++p) {
    std::printf("%12g %14.6g %12.3g %6llu\n", panel.x[p], panel.mean[p], panel.ci95[p],
                static_cast<unsigned long long>(panel.seeds[p]));
  }
}

/// Shared sweep shape: title, horizon and the CLI's replication flags.
sim::FigureSpec base_spec(const std::string& title, f64 length, const sim::ArgParser& args) {
  sim::FigureSpec spec;
  spec.title = title;
  spec.base.sim_length = length;
  sim::apply_cli_flags(spec, args);
  return spec;
}

/// Shared run options: one protocol (the plane prices only slot 0) and the
/// data plane on.
sim::ExperimentOptions plane_options() {
  sim::ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kBcs};
  opts.data_plane.enabled = true;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  sim::FlagSet flags("fig_dataplane [flags]");
  flags.add("length", sim::FlagType::kNumber, "50000", "simulation horizon per run")
      .add("precision", sim::FlagType::kNumber, "0.08", "target relative CI half-width")
      .add("min-seeds", sim::FlagType::kUInt, "3", "replications always run per point")
      .add("max-seeds", sim::FlagType::kUInt, "8", "replication cap per point")
      .add("batch", sim::FlagType::kUInt, "", "replications per adaptive round (default auto)")
      .add("seeds", sim::FlagType::kUInt, "", "fixed replication count (min = max = n)")
      .add("seed-base", sim::FlagType::kUInt, "42", "replication seed root")
      .add("threads", sim::FlagType::kUInt, "0", "worker threads (0 = hardware concurrency)")
      .add("out", sim::FlagType::kString, "", "write every panel as one JSON document");
  sim::ArgParser args(0, nullptr);
  try {
    args = flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (args.get_flag("help")) {
    flags.print_help(std::cout);
    return 0;
  }
  const f64 length = args.get_f64("length", 50'000.0);
  const u32 threads = args.get_u32("threads", 0);
  const std::vector<f64> t_switch_values{100, 200, 500, 1'000, 2'000};
  const std::vector<f64> p_switch_values{0.2, 0.4, 0.6, 0.8, 1.0};
  std::vector<Panel> panels;

  std::printf("FIG-DATAPLANE — checkpoint bytes, placement and recovery cost\n");

  // Panel 1: per-handoff migration stall vs T_switch, both strategies.
  for (const auto strategy :
       {storage::MigrationStrategy::kPreCopy, storage::MigrationStrategy::kPostCopy}) {
    const char* name = storage::migration_strategy_name(strategy);
    sim::FigureSpec spec =
        base_spec(std::string("stall vs T_switch (") + name + ")", length, args);
    spec.t_switch_values = t_switch_values;
    spec.metric = [](const sim::RunResult& r, usize) {
      return r.data_plane.migrations == 0
                 ? 0.0
                 : r.data_plane.migration_stall / static_cast<f64>(r.data_plane.migrations);
    };
    sim::ExperimentOptions opts = plane_options();
    opts.data_plane.migration = strategy;
    panels.push_back(panel_from(std::string("stall_vs_tswitch_") + name,
                                sim::run_figure(spec, opts, threads), t_switch_values));
    print_panel(panels.back(), "T_switch", "stall/handoff (tu)");
  }

  // Panel 2: recovery-data locality vs T_switch with the image frozen at
  // its first write (migration=none): the drift story.
  {
    sim::FigureSpec spec = base_spec("locality vs T_switch (no migration)", length, args);
    spec.t_switch_values = t_switch_values;
    spec.metric = [](const sim::RunResult& r, usize) { return r.data_plane.mean_locality(); };
    sim::ExperimentOptions opts = plane_options();
    opts.data_plane.migration = storage::MigrationStrategy::kNone;
    panels.push_back(panel_from("locality_vs_tswitch_none", sim::run_figure(spec, opts, threads),
                                t_switch_values));
    print_panel(panels.back(), "T_switch", "mean hops to image");
  }

  // Panel 3: stall and locality vs P_switch — one single-point adaptive
  // sweep per value (P_switch is a base-config field, not the sweep axis,
  // so each value gets its own spec).
  {
    Panel stall{"stall_vs_pswitch_precopy", {}, {}, {}, {}};
    Panel locality{"locality_vs_pswitch_none", {}, {}, {}, {}};
    for (const f64 ps : p_switch_values) {
      sim::FigureSpec spec =
          base_spec("data plane vs P_switch = " + std::to_string(ps), length, args);
      spec.t_switch_values = {1'000.0};
      spec.base.p_switch = ps;
      spec.base.disconnect_mean = 500.0;  // P_switch < 1 needs disconnections
      // Total stall here, not per-handoff: P_switch scales how many
      // mobility events are real switches, i.e. how often the plane pays.
      spec.metric = [](const sim::RunResult& r, usize) { return r.data_plane.migration_stall; };
      sim::ExperimentOptions opts = plane_options();
      const Panel a = panel_from("", sim::run_figure(spec, opts, threads), {ps});
      stall.x.push_back(ps);
      stall.mean.push_back(a.mean[0]);
      stall.ci95.push_back(a.ci95[0]);
      stall.seeds.push_back(a.seeds[0]);

      spec.metric = [](const sim::RunResult& r, usize) { return r.data_plane.mean_locality(); };
      opts.data_plane.migration = storage::MigrationStrategy::kNone;
      const Panel b = panel_from("", sim::run_figure(spec, opts, threads), {ps});
      locality.x.push_back(ps);
      locality.mean.push_back(b.mean[0]);
      locality.ci95.push_back(b.ci95[0]);
      locality.seeds.push_back(b.seeds[0]);
    }
    print_panel(stall, "P_switch", "total stall (tu)");
    print_panel(locality, "P_switch", "mean hops to image");
    panels.push_back(std::move(stall));
    panels.push_back(std::move(locality));
  }

  // Panel 4: mean upload size vs T_switch (the basic-checkpoint rate
  // tracks the handoff rate, so T_switch sweeps the checkpoint rate),
  // incremental dirty-delta vs dense full snapshots.
  for (const bool incremental : {true, false}) {
    const char* name = incremental ? "incremental" : "full";
    sim::FigureSpec spec =
        base_spec(std::string("upload bytes vs T_switch (") + name + ")", length, args);
    spec.t_switch_values = t_switch_values;
    spec.metric = [](const sim::RunResult& r, usize) {
      return r.data_plane.checkpoints == 0
                 ? 0.0
                 : static_cast<f64>(r.data_plane.upload_bytes) /
                       static_cast<f64>(r.data_plane.checkpoints);
    };
    sim::ExperimentOptions opts = plane_options();
    opts.data_plane.incremental = incremental;
    panels.push_back(panel_from(std::string("bytes_vs_tswitch_") + name,
                                sim::run_figure(spec, opts, threads), t_switch_values));
    print_panel(panels.back(), "T_switch", "bytes/checkpoint");
  }

  // Demonstration: executed recovery pays for the bytes, on two isolated
  // axes. Same crash on a line of MSSs every time.
  //
  //  * Distance — infinite storage (no disk queueing), migration=none vs
  //    precopy. The only difference between the runs is where the image
  //    sits, so the frozen placement's wired legs must stretch recovery.
  //  * Contention — local image (precopy), infinite vs contention disk.
  //    The only difference is the storage queue, so the busy disk must
  //    stretch recovery.
  const auto crashed_run = [&](storage::MigrationStrategy strategy,
                               storage::StableStorageKind model) {
    sim::SimConfig cfg;
    cfg.sim_length = length;
    cfg.t_switch = 200.0;  // plenty of drift before the crash
    cfg.network.mss_topology = net::MssTopologyKind::kLine;
    cfg.seed = 7;
    cfg.faults.mode = sim::CrashMode::kCorrelated;
    cfg.faults.correlated = 4;
    cfg.faults.first_crash_at = length / 2.0;
    sim::ExperimentOptions opts = plane_options();
    opts.data_plane.migration = strategy;
    opts.data_plane.model = model;
    // A slow wide-area backbone: the recovery record closes when the LAST
    // victim restores, so the wire must dominate whenever any victim's
    // image is remote, regardless of which victim was the straggler.
    opts.data_plane.wired_bandwidth = 2e4;
    const sim::RunResult r = sim::run_experiment(cfg, opts);
    std::printf("\nrecovery fetch (%s, %s disk): %llu fetch(es) over %llu hop(s), "
                "fetch time %.3f tu, measured recovery %.3f tu",
                storage::migration_strategy_name(strategy),
                storage::stable_storage_kind_name(model),
                static_cast<unsigned long long>(r.data_plane.fetches),
                static_cast<unsigned long long>(r.data_plane.fetch_hops),
                r.data_plane.fetch_time, r.recovery.total_recovery_time);
    return r;
  };
  const sim::RunResult far_run =
      crashed_run(storage::MigrationStrategy::kNone, storage::StableStorageKind::kInfinite);
  const sim::RunResult near_run =
      crashed_run(storage::MigrationStrategy::kPreCopy, storage::StableStorageKind::kInfinite);
  const sim::RunResult busy_run =
      crashed_run(storage::MigrationStrategy::kPreCopy, storage::StableStorageKind::kContention);
  const f64 rec_far = far_run.recovery.total_recovery_time;
  const f64 rec_near = near_run.recovery.total_recovery_time;
  const f64 rec_busy = busy_run.recovery.total_recovery_time;
  const bool distance_costs = rec_far > rec_near;
  const bool contention_costs = rec_busy > rec_near;
  std::printf("\n\ndistance:   %llu hops frozen vs %llu migrated -> recovery %.3f vs %.3f tu "
              "(must cost time: %s)\n",
              static_cast<unsigned long long>(far_run.data_plane.fetch_hops),
              static_cast<unsigned long long>(near_run.data_plane.fetch_hops), rec_far, rec_near,
              distance_costs ? "yes" : "NO");
  std::printf("contention: busy local disk vs idle -> recovery %.3f vs %.3f tu "
              "(must cost time: %s)\n",
              rec_busy, rec_near, contention_costs ? "yes" : "NO");

  const std::string out = args.get_string("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", out.c_str());
      return 1;
    }
    sim::JsonWriter w(os);
    w.begin_object();
    w.field("benchmark", "fig_dataplane").field("length", length);
    w.key("panels").begin_array();
    for (const Panel& panel : panels) {
      w.begin_object();
      w.field("name", panel.name);
      w.key("points").begin_array();
      for (usize p = 0; p < panel.x.size(); ++p) {
        w.begin_object();
        w.field("x", panel.x[p])
            .field("mean", panel.mean[p])
            .field("ci95", panel.ci95[p])
            .field("replications", panel.seeds[p]);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("recovery_fetch").begin_object();
    w.field("fetch_hops_frozen", far_run.data_plane.fetch_hops)
        .field("fetch_hops_migrated", near_run.data_plane.fetch_hops)
        .field("recovery_time_frozen", rec_far)
        .field("recovery_time_migrated", rec_near)
        .field("recovery_time_contended", rec_busy);
    w.end_object();
    w.end_object();
    os << '\n';
    std::printf("wrote %s\n", out.c_str());
  }
  // The distance and contention stories are the acceptance gate: if
  // pulling the image from farther away (or through a busy disk) is not
  // slower, the fetch path is broken.
  return distance_costs && contention_costs ? 0 : 1;
}
