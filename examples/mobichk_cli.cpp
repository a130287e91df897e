// mobichk_cli: the command-line face of the library.
//
//   mobichk_cli run     [flags]   one simulation, table or --json output;
//                                 --metrics / --chrome-trace attach the
//                                 observability layer and export it
//   mobichk_cli figure  [flags]   a T_switch sweep (any figure's config)
//   mobichk_cli recover [flags]   failure injection + recovery-time report
//   mobichk_cli trace   [flags]   dump the run's event trace (--out file)
//   mobichk_cli explain [flags]   re-run observed and explain causality:
//                                 --ckpt <proto>:<host>:<idx> prints the
//                                 send/forced-checkpoint chain behind a
//                                 checkpoint, --msg <id> a message's story,
//                                 --dot <path|-> the checkpoint-interval
//                                 graph with the recovery line highlighted
//   mobichk_cli audit   [flags]   differential determinism audit: the same
//                                 config under every event-queue kind must
//                                 give identical trace hashes and N_tot
//                                 (exit 1 on divergence)
//   mobichk_cli report  [flags]   self-contained HTML report from saved
//                                 JSON documents: --run=<result.json>
//                                 [--figure=<figure.json>] --out=<path>
//
// Every simulation command also accepts --profile (host-time phase
// breakdown after the run; prof.* metrics in --json output) and
// --profile-trace=<path> (host-time Chrome trace). Profiling changes no
// simulated outcome: traces stay bit-identical.
//
// Every command supports --help; flags are schema-checked (unknown flags
// fail with a did-you-mean suggestion, malformed numbers fail naming the
// flag).
//
// Configuration layering: every command accepts --config <file.json> (the
// nested run-config document, sim/experiment_config.hpp, read into the
// engine's SimConfig + ExperimentOptions) as the base, and every flag
// present on the command line overrides the corresponding file value.
// --dump-config prints the effective merged config as JSON and exits —
// the output reloads through --config to a bit-identical run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mobichk.hpp"

namespace {

using namespace mobichk;

std::string fmt_num(f64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// The simulation-shape flags every command understands.
void add_config_flags(sim::FlagSet& fs) {
  const sim::SimConfig d;
  const storage::DataPlaneConfig dp;
  fs.add("config", sim::FlagType::kString, "",
         "load a JSON experiment config as the base; flags override its values")
      .add("dump-config", sim::FlagType::kBool, "",
           "print the effective config as JSON and exit (reloads via --config)")
      .add("hosts", sim::FlagType::kUInt, std::to_string(d.network.n_hosts),
           "number of mobile hosts")
      .add("mss", sim::FlagType::kUInt, std::to_string(d.network.n_mss),
           "number of mobile support stations")
      .add("length", sim::FlagType::kNumber, fmt_num(d.sim_length),
           "simulated time units to run")
      .add("seed", sim::FlagType::kUInt, std::to_string(d.seed), "root RNG seed")
      .add("tswitch", sim::FlagType::kNumber, fmt_num(d.t_switch),
           "mean time between cell-switch attempts (the paper's T_switch)")
      .add("pswitch", sim::FlagType::kNumber, fmt_num(d.p_switch),
           "probability the next mobility event is a cell switch rather than a "
           "disconnection (the paper's p_switch)")
      .add("psend", sim::FlagType::kNumber, fmt_num(d.p_send),
           "probability a workload operation sends a message")
      .add("comm-mean", sim::FlagType::kNumber, fmt_num(d.comm_mean),
           "mean time between workload operations")
      .add("h", sim::FlagType::kNumber, fmt_num(d.heterogeneity),
           "fraction of fast hosts in [0,1] (fast hosts use T_switch / " +
               fmt_num(d.fast_factor) + ")")
      .add("outage", sim::FlagType::kNumber, fmt_num(d.disconnect_mean),
           "mean disconnection length, > 0 (disconnections happen only when --pswitch < 1)")
      .add("mobility", sim::FlagType::kString, sim::mobility_model_name(d.mobility_model),
           "mobility model: paper-uniform|ring-neighbor|pareto-residence")
      .add("topology", sim::FlagType::kString, net::mss_topology_name(d.network.mss_topology),
           "MSS wired topology: full-mesh|ring|line|star")
      .add("bandwidth", sim::FlagType::kNumber, "0",
           "wireless bandwidth in bytes/tu (0 = unlimited)")
      .add("protocols", sim::FlagType::kString, "TP,BCS,QBC",
           "comma-separated protocol set (TP,BCS,QBC,BASIC,UNCOORD,COORD,LAZY-BCS)")
      .add("crash-mode", sim::FlagType::kString, "none",
           "failure injection: none|host|correlated|cell")
      .add("crash-time", sim::FlagType::kNumber, "0",
           "time of the first injected failure (0 = length/2)")
      .add("crash-interval", sim::FlagType::kNumber, "0",
           "mean gap between subsequent failures (0 = a single failure)")
      .add("crash-count", sim::FlagType::kUInt, "1", "maximum failures to inject")
      .add("crash-target", sim::FlagType::kUInt, "",
           "fixed victim host (or cell for --crash-mode=cell); default random")
      .add("crash-hosts", sim::FlagType::kUInt, "2",
           "hosts killed together under --crash-mode=correlated")
      .add("shards", sim::FlagType::kUInt, "1",
           "spatial shards for the parallel engine (clamped to --mss; "
           "bit-identical to 1)")
      .add("data-plane", sim::FlagType::kBool, "",
           "enable the checkpoint data plane (sizes, storage queues, migration)")
      .add("state-bytes", sim::FlagType::kUInt, std::to_string(dp.full_state_bytes),
           "full process-image size S in bytes (also sizes every protocol's storage_* stats)")
      .add("dirty-rate", sim::FlagType::kNumber, fmt_num(dp.dirty_rate),
           "state-dirtying rate omega (incremental checkpoint sizing)")
      .add("storage-model", sim::FlagType::kString, "contention",
           "stable-storage service model: infinite|contention")
      .add("storage-bandwidth", sim::FlagType::kNumber, fmt_num(dp.storage_bandwidth),
           "per-MSS stable-storage bandwidth in bytes/tu")
      .add("migration", sim::FlagType::kString, "precopy",
           "checkpoint migration on handoff: none|precopy|postcopy")
      .add("precopy-rounds", sim::FlagType::kUInt, std::to_string(dp.precopy_rounds),
           "max iterative pre-copy rounds before the stop-and-copy")
      .add("profile", sim::FlagType::kBool, "",
           "attach the host-time profiler and print the phase breakdown after the run")
      .add("profile-trace", sim::FlagType::kString, "",
           "write the host-time Chrome trace to <path> (implies --profile)");
}

bool profile_requested(const sim::ArgParser& args) {
  return args.get_flag("profile") || !args.get_string("profile-trace", "").empty();
}

/// Prints the prof.* snapshot as a phase table: ".seconds"/".count" pairs
/// collapse to one row, scalar gauges print as-is.
void print_prof_summary(const obs::Profiler& prof) {
  const std::vector<obs::MetricSample> samples = prof.snapshot();
  auto ends_with = [](const std::string& s, const char* suffix) {
    const usize n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  };
  std::printf("\nhost-time profile:\n");
  std::printf("  %-42s %14s %12s\n", "phase", "seconds", "count");
  for (usize i = 0; i < samples.size(); ++i) {
    const obs::MetricSample& m = samples[i];
    if (ends_with(m.name, ".seconds") && i + 1 < samples.size() &&
        ends_with(samples[i + 1].name, ".count")) {
      std::printf("  %-42s %14.6f %12.0f\n",
                  m.name.substr(0, m.name.size() - std::strlen(".seconds")).c_str(), m.value,
                  samples[i + 1].value);
      ++i;
    } else {
      std::printf("  %-42s %14.6g\n", m.name.c_str(), m.value);
    }
  }
}

sim::FlagSet make_flags(const std::string& cmd) {
  if (cmd == "run") {
    sim::FlagSet fs("mobichk_cli run [flags]");
    add_config_flags(fs);
    fs.add("verify", sim::FlagType::kBool, "", "run the orphan-consistency oracle after the run")
        .add("json", sim::FlagType::kBool, "", "emit the run result as JSON on stdout")
        .add("audit-determinism", sim::FlagType::kBool, "", "shorthand for the audit command")
        .add("metrics", sim::FlagType::kString, "",
             "observe the run and write a JSONL metrics/timeline dump to <path>")
        .add("chrome-trace", sim::FlagType::kString, "",
             "observe the run and write a Perfetto-loadable trace-event JSON to <path>");
    return fs;
  }
  if (cmd == "figure") {
    sim::FlagSet fs("mobichk_cli figure [flags]");
    add_config_flags(fs);
    fs.add("seeds", sim::FlagType::kUInt, "", "fixed replication count (min = max = n)")
        .add("precision", sim::FlagType::kNumber, "0.04",
             "target relative 95% CI half-width per cell")
        .add("min-seeds", sim::FlagType::kUInt, "", "replications always run per point")
        .add("max-seeds", sim::FlagType::kUInt, "", "replication cap per point")
        .add("batch", sim::FlagType::kUInt, "", "replications dispatched per adaptive round")
        .add("seed-base", sim::FlagType::kUInt, "", "root of the replication seed derivation")
        .add("threads", sim::FlagType::kUInt, "0", "worker threads (0 = hardware concurrency)")
        .add("json", sim::FlagType::kBool, "", "emit the figure as JSON")
        .add("csv", sim::FlagType::kBool, "", "emit the figure as CSV")
        .add("gnuplot", sim::FlagType::kBool, "", "emit a self-contained gnuplot script");
    return fs;
  }
  if (cmd == "recover") {
    sim::FlagSet fs("mobichk_cli recover [flags]");
    add_config_flags(fs);
    fs.add("failed", sim::FlagType::kUInt, "0", "id of the mobile host that fails");
    return fs;
  }
  if (cmd == "trace") {
    sim::FlagSet fs("mobichk_cli trace [flags]");
    add_config_flags(fs);
    fs.add("out", sim::FlagType::kString, "", "write the full trace to <path>");
    return fs;
  }
  if (cmd == "explain") {
    sim::FlagSet fs("mobichk_cli explain [flags]");
    add_config_flags(fs);
    fs.add("ckpt", sim::FlagType::kString, "",
           "checkpoint to explain, as <proto>:<host>:<ordinal> (e.g. BCS:0:3)")
        .add("msg", sim::FlagType::kUInt, "0", "message id whose causal story to print")
        .add("depth", sim::FlagType::kUInt, "16", "maximum causal-chain links to follow")
        .add("dot", sim::FlagType::kString, "",
             "write the checkpoint-interval graph as Graphviz DOT to <path> (- = stdout)")
        .add("recovery", sim::FlagType::kBool, "",
             "narrate the run's executed crash recoveries (needs --crash-mode)");
    return fs;
  }
  if (cmd == "report") {
    // Post-hoc tool: consumes serialized documents, no simulation flags.
    sim::FlagSet fs("mobichk_cli report --run=<result.json> [--figure=<figure.json>] --out=<path>");
    fs.add("run", sim::FlagType::kString, "",
           "RunResult JSON document (mobichk_cli run --json > result.json)")
        .add("figure", sim::FlagType::kString, "",
             "optional FigureResult JSON document (mobichk_cli figure --json)")
        .add("out", sim::FlagType::kString, "report.html",
             "output path for the self-contained HTML report");
    return fs;
  }
  // audit
  sim::FlagSet fs("mobichk_cli audit [flags]");
  add_config_flags(fs);
  return fs;
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_report(const sim::ArgParser& args) {
  const std::string run_path = args.get_string("run", "");
  if (run_path.empty()) {
    std::fprintf(stderr, "report: --run=<result.json> is required\n");
    return 2;
  }
  const sim::RunResult run = sim::run_result_from_json(sim::json_parse(slurp_file(run_path)));
  std::unique_ptr<sim::SweepView> sweep;
  const std::string fig_path = args.get_string("figure", "");
  if (!fig_path.empty()) {
    sweep = std::make_unique<sim::SweepView>(
        sim::SweepView::from_json(sim::json_parse(slurp_file(fig_path))));
  }
  const std::string out = args.get_string("out", "report.html");
  sim::write_html_report(out, run, sweep.get());
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

/// The effective run configuration: the --config file (or defaults) as
/// the base, every flag present on the command line laid over it.
std::pair<sim::SimConfig, sim::ExperimentOptions> effective_config(const sim::ArgParser& args) {
  sim::SimConfig cfg;
  sim::ExperimentOptions opts;
  const std::string path = args.get_string("config", "");
  if (!path.empty()) sim::load_config(path, cfg, opts);

  cfg.network.n_hosts = args.get_u32("hosts", cfg.network.n_hosts);
  cfg.network.n_mss = args.get_u32("mss", cfg.network.n_mss);
  if (args.has("topology")) {
    cfg.network.mss_topology =
        net::mss_topology_from_name(args.get_string("topology", "full-mesh"));
  }
  cfg.network.wireless_bandwidth = args.get_f64("bandwidth", cfg.network.wireless_bandwidth);

  cfg.sim_length = args.get_f64("length", cfg.sim_length);
  cfg.seed = args.get_u64("seed", cfg.seed);
  opts.shards = args.get_u32("shards", opts.shards);

  cfg.comm_mean = args.get_f64("comm-mean", cfg.comm_mean);
  cfg.p_send = args.get_f64("psend", cfg.p_send);

  if (args.has("mobility")) {
    cfg.mobility_model =
        sim::mobility_model_from_name(args.get_string("mobility", "paper-uniform"));
  }
  cfg.t_switch = args.get_f64("tswitch", cfg.t_switch);
  cfg.p_switch = args.get_f64("pswitch", cfg.p_switch);
  cfg.disconnect_mean = args.get_f64("outage", cfg.disconnect_mean);
  cfg.heterogeneity = args.get_f64("h", cfg.heterogeneity);

  if (args.has("crash-mode")) {
    cfg.faults.mode = sim::crash_mode_from_name(args.get_string("crash-mode", "none"));
  }
  cfg.faults.first_crash_at = args.get_f64("crash-time", cfg.faults.first_crash_at);
  cfg.faults.crash_interval = args.get_f64("crash-interval", cfg.faults.crash_interval);
  cfg.faults.max_crashes = args.get_u32("crash-count", cfg.faults.max_crashes);
  cfg.faults.target = args.get_u32("crash-target", cfg.faults.target);
  cfg.faults.correlated = args.get_u32("crash-hosts", cfg.faults.correlated);

  if (args.get_flag("data-plane")) opts.data_plane.enabled = true;
  opts.data_plane.full_state_bytes = args.get_u64("state-bytes", opts.data_plane.full_state_bytes);
  opts.data_plane.dirty_rate = args.get_f64("dirty-rate", opts.data_plane.dirty_rate);
  if (args.has("storage-model")) {
    const std::string model = args.get_string("storage-model", "contention");
    if (!storage::parse_stable_storage_kind(model, opts.data_plane.model)) {
      throw std::invalid_argument("unknown --storage-model: " + model);
    }
  }
  opts.data_plane.storage_bandwidth =
      args.get_f64("storage-bandwidth", opts.data_plane.storage_bandwidth);
  if (args.has("migration")) {
    const std::string strategy = args.get_string("migration", "precopy");
    if (!storage::parse_migration_strategy(strategy, opts.data_plane.migration)) {
      throw std::invalid_argument("unknown --migration: " + strategy);
    }
  }
  opts.data_plane.precopy_rounds = args.get_u32("precopy-rounds", opts.data_plane.precopy_rounds);

  if (args.has("protocols")) {
    const std::string list = args.get_string("protocols", "TP,BCS,QBC");
    opts.protocols.clear();
    std::istringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (!token.empty()) opts.protocols.push_back(core::protocol_kind_from_name(token));
    }
  }
  return {cfg, opts};
}

int cmd_audit(const sim::ArgParser& args) {
  auto [cfg, opts] = effective_config(args);
  obs::Profiler profiler;
  const bool profile = profile_requested(args);
  // One profiler across all queue-kind runs: the audit is sequential, so
  // the phases accumulate into a combined "cost of the audit" table.
  if (profile) opts.profiler = &profiler;
  const sim::AuditReport report = sim::audit_determinism(cfg, opts);
  report.print(std::cout);
  if (profile) print_prof_summary(profiler);
  const std::string prof_trace = args.get_string("profile-trace", "");
  if (!prof_trace.empty()) obs::write_host_trace(prof_trace, profiler);
  return report.deterministic() ? 0 : 1;
}

int cmd_run(const sim::ArgParser& args) {
  if (args.get_flag("audit-determinism")) return cmd_audit(args);
  auto [cfg, opts] = effective_config(args);
  opts.verify_consistency = args.get_flag("verify");
  const std::string metrics_path = args.get_string("metrics", "");
  const std::string trace_path = args.get_string("chrome-trace", "");
  const std::string prof_trace = args.get_string("profile-trace", "");
  const bool profile = profile_requested(args);
  obs::RunObserver observer;
  obs::Profiler profiler;
  if (!metrics_path.empty() || !trace_path.empty()) opts.observer = &observer;
  if (profile) opts.profiler = &profiler;
  const sim::RunResult r = sim::run_experiment(cfg, opts);
  // The exporters throw (naming path + errno) on any open/write failure;
  // main()'s catch turns that into an error message and exit 1.
  if (!metrics_path.empty()) obs::write_metrics_jsonl(metrics_path, observer);
  if (!trace_path.empty()) obs::write_chrome_trace(trace_path, observer, profile ? &profiler : nullptr);
  if (!prof_trace.empty()) obs::write_host_trace(prof_trace, profiler);
  if (args.get_flag("json")) {
    // The prof.* catalog rides in the document's "metrics" object.
    sim::write_json(std::cout, r);
    return 0;
  }
  std::printf("%-10s %10s %10s %10s %10s %14s\n", "proto", "N_tot", "basic", "forced", "max_idx",
              "piggyback(B)");
  for (const auto& p : r.protocols) {
    std::printf("%-10s %10llu %10llu %10llu %10llu %14llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.n_tot),
                static_cast<unsigned long long>(p.basic),
                static_cast<unsigned long long>(p.forced),
                static_cast<unsigned long long>(p.max_index),
                static_cast<unsigned long long>(p.piggyback_bytes));
  }
  if (r.recovery.crashes_executed > 0) {
    const sim::CrashRunStats& rec = r.recovery;
    std::printf("\nrecovery: %llu crash(es) executed (%llu skipped), %llu host(s) failed, "
                "%llu rolled back\n",
                static_cast<unsigned long long>(rec.crashes_executed),
                static_cast<unsigned long long>(rec.crashes_skipped),
                static_cast<unsigned long long>(rec.hosts_crashed),
                static_cast<unsigned long long>(rec.hosts_rolled_back));
    std::printf("  %llu events undone, %llu messages replayed, %llu checkpoints discarded\n",
                static_cast<unsigned long long>(rec.undone_events),
                static_cast<unsigned long long>(rec.replayed_messages),
                static_cast<unsigned long long>(rec.checkpoints_discarded));
    std::printf("  recovery time: measured max %.2f tu, planned %.2f tu, model estimate %.2f tu\n",
                rec.max_recovery_time, rec.total_planned, rec.total_estimated);
  }
  if (r.data_plane_enabled) {
    const storage::DataPlaneStats& d = r.data_plane;
    std::printf("\ndata plane: %llu checkpoint(s), %llu B uploaded (%llu B dense), "
                "queue delay %.2f tu\n",
                static_cast<unsigned long long>(d.checkpoints),
                static_cast<unsigned long long>(d.upload_bytes),
                static_cast<unsigned long long>(d.full_bytes), d.queue_delay);
    std::printf("  %llu migration(s) moved %llu B (stall %.3f tu), mean locality %.3f hop(s), "
                "%llu recovery fetch(es) cost %.3f tu\n",
                static_cast<unsigned long long>(d.migrations),
                static_cast<unsigned long long>(d.migration_bytes), d.migration_stall,
                d.mean_locality(), static_cast<unsigned long long>(d.fetches), d.fetch_time);
  }
  if (profile) print_prof_summary(profiler);
  return 0;
}

int cmd_figure(const sim::ArgParser& args) {
  const auto [cfg, opts] = effective_config(args);
  sim::FigureSpec spec;
  spec.title = "N_tot vs T_switch";
  spec.base = cfg;
  sim::apply_cli_flags(spec, args);
  const sim::FigureResult result = sim::run_figure(spec, opts, args.get_u32("threads", 0));
  if (args.get_flag("json")) {
    sim::write_json(std::cout, result);
  } else if (args.get_flag("csv")) {
    result.write_csv(std::cout);
  } else if (args.get_flag("gnuplot")) {
    result.write_gnuplot(std::cout);
  } else {
    result.print(std::cout);
  }
  if (profile_requested(args)) {
    // Replications run concurrently, so a shared profiler cannot attach;
    // the sweep's cost story is the ledger's per-point wall attribution.
    const sim::SweepLedger& led = result.ledger;
    std::printf("\nper-point cost (wall seconds, overshoot included):\n");
    for (usize p = 0; p < led.point_wall_seconds.size(); ++p) {
      std::printf("  T_switch %8s %10.3f s\n", fmt_num(spec.t_switch_values[p]).c_str(),
                  led.point_wall_seconds[p]);
    }
    std::printf("  total %.3f s, barrier stall %.3f s\n", led.wall_seconds,
                led.barrier_stall_seconds);
  }
  return 0;
}

int cmd_recover(const sim::ArgParser& args) {
  auto [cfg, opts] = effective_config(args);
  obs::Profiler profiler;
  const bool profile = profile_requested(args);
  if (profile) opts.profiler = &profiler;
  sim::Experiment exp(cfg, opts);
  exp.run();
  const auto failed = static_cast<net::HostId>(args.get_u64("failed", 0));
  const auto fail_pos = exp.harness().current_positions();
  std::vector<net::MssId> host_mss(exp.network().n_hosts());
  for (net::HostId h = 0; h < exp.network().n_hosts(); ++h) {
    host_mss[h] = exp.network().host(h).mss();
  }
  std::printf("failure of MH %u at t=%.0f\n\n", failed, exp.simulator().now());
  std::printf("%-10s %14s %14s %12s %12s %12s %12s\n", "proto", "undone-ev", "ckpts-lost",
              "coord(tu)", "xfer(tu)", "replay(tu)", "total(tu)");
  for (usize slot = 0; slot < opts.protocols.size(); ++slot) {
    const auto rb = core::rollback_to_consistent(exp.log(slot), exp.harness().message_log(),
                                                 fail_pos, failed);
    const auto est = core::estimate_recovery_time(rb, host_mss, exp.network().n_mss());
    std::printf("%-10s %14llu %14llu %12.2f %12.2f %12.2f %12.2f\n",
                core::protocol_kind_name(opts.protocols[slot]),
                static_cast<unsigned long long>(rb.undone_events()),
                static_cast<unsigned long long>(rb.total_discarded()), est.coordination,
                est.state_transfer, est.replay, est.total());
  }
  if (profile) print_prof_summary(profiler);
  const std::string prof_trace = args.get_string("profile-trace", "");
  if (!prof_trace.empty()) obs::write_host_trace(prof_trace, profiler);
  return 0;
}

int cmd_explain(const sim::ArgParser& args) {
  const std::string ckpt_spec = args.get_string("ckpt", "");
  const u64 msg_id = args.get_u64("msg", 0);
  const std::string dot_path = args.get_string("dot", "");
  const bool recovery = args.get_flag("recovery");
  if (ckpt_spec.empty() && msg_id == 0 && dot_path.empty() && !recovery) {
    std::fprintf(stderr,
                 "explain: nothing to explain — pass --ckpt, --msg, --recovery, and/or --dot\n");
    return 2;
  }
  const auto [cfg, base_opts] = effective_config(args);
  sim::ExperimentOptions opts = base_opts;
  opts.shards = 1;  // observers are sequential-only; the replay below shards
  obs::RunObserver observer;
  opts.observer = &observer;
  obs::Profiler profiler;
  const bool profile = profile_requested(args);
  if (profile) opts.profiler = &profiler;
  sim::Experiment exp(cfg, opts);
  exp.run();
  const std::vector<std::string>& names = observer.protocol_names();
  if (profile) print_prof_summary(profiler);
  if (const std::string prof_trace = args.get_string("profile-trace", ""); !prof_trace.empty()) {
    obs::write_host_trace(prof_trace, profiler);
  }

  if (msg_id != 0) {
    sim::print_message_story(std::cout, observer.timeline(), names, msg_id);
  }
  if (recovery) {
    if (exp.faults() == nullptr) {
      std::fprintf(stderr, "explain: --recovery needs a crash scenario (--crash-mode)\n");
      return 2;
    }
    sim::print_recovery_story(std::cout, *exp.faults(), names);
  }
  bool have_target = false;
  sim::CkptTarget target;
  if (!ckpt_spec.empty()) {
    target = sim::parse_ckpt_target(ckpt_spec, names);
    have_target = true;
    sim::print_checkpoint_chain(std::cout, observer.timeline(), names,
                                static_cast<i32>(target.slot), static_cast<i32>(target.host),
                                target.ordinal, args.get_u64("depth", 16));
  }
  if (base_opts.shards > 1 && (msg_id != 0 || have_target)) {
    // Observed runs are sequential-only, so the shard/window annotation
    // comes from a second, unobserved sharded replay of the same config
    // with the barrier-window log enabled. The replay is bit-identical to
    // the observed run, so its windows map 1:1 onto the timeline's times.
    sim::Experiment sexp(cfg, base_opts);
    sexp.sharded()->enable_window_log(true);
    sexp.run();
    std::vector<u32> owners(sexp.network().n_hosts());
    for (net::HostId h = 0; h < sexp.network().n_hosts(); ++h) {
      owners[h] = sexp.network().owner_shard(h);
    }
    sim::print_shard_annotation(std::cout, observer.timeline(), owners,
                                sexp.sharded()->window_log(), msg_id,
                                have_target ? static_cast<i32>(target.host) : -1);
  }
  if (!dot_path.empty()) {
    const usize slot = have_target ? target.slot : 0;
    const core::CheckpointLog& log = exp.log(slot);
    const std::vector<u64> current = exp.harness().current_positions();
    const core::ProtocolKind kind = exp.kind(slot);
    core::GlobalCheckpoint line;
    bool have_line = false;
    std::string line_desc;
    if (kind == core::ProtocolKind::kTp) {
      // Anchor: the named checkpoint, else the newest checkpoint of the run.
      const core::CheckpointRecord* anchor = nullptr;
      if (have_target) {
        anchor = log.by_ordinal(target.host, target.ordinal);
      } else {
        for (net::HostId h = 0; h < log.n_hosts(); ++h) {
          const auto& records = log.of(h);
          if (!records.empty() && (anchor == nullptr || records.back().time > anchor->time)) {
            anchor = &records.back();
          }
        }
      }
      if (anchor != nullptr) {
        line = core::tp_recovery_line(log, *anchor, current);
        have_line = true;
        line_desc = "TP line anchored at C" + std::to_string(anchor->host) + "," +
                    std::to_string(anchor->ordinal);
      }
    } else if (kind != core::ProtocolKind::kBasicOnly &&
               kind != core::ProtocolKind::kUncoordinated) {
      u64 index = log.max_sn();
      if (have_target) {
        const core::CheckpointRecord* rec = log.by_ordinal(target.host, target.ordinal);
        if (rec != nullptr) index = rec->sn;
      }
      line = core::index_recovery_line(log, index, core::recovery_rule_for(kind), current);
      have_line = true;
      line_desc = "recovery line M=" + std::to_string(index);
    }
    std::string title = names.at(slot) + " checkpoint-interval graph";
    if (have_line) title += " — " + line_desc;
    if (dot_path == "-") {
      sim::write_interval_dot(std::cout, log, exp.harness().message_log(),
                              have_line ? &line : nullptr, title);
    } else {
      std::ofstream os(dot_path);
      if (!os.is_open()) {
        std::fprintf(stderr, "explain: cannot open %s for writing\n", dot_path.c_str());
        return 1;
      }
      sim::write_interval_dot(os, log, exp.harness().message_log(), have_line ? &line : nullptr,
                              title);
      std::printf("wrote %s\n", dot_path.c_str());
    }
  }
  return 0;
}

int cmd_trace(const sim::ArgParser& args) {
  auto [cfg, opts] = effective_config(args);
  des::VectorSink sink;
  opts.trace_sink = &sink;
  obs::Profiler profiler;
  const bool profile = profile_requested(args);
  if (profile) opts.profiler = &profiler;
  sim::run_experiment(cfg, opts);

  const std::string out = args.get_string("out", "");
  if (!out.empty()) {
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out.c_str());
      return 1;
    }
    des::write_trace(file, sink.records());
    std::printf("wrote %zu records to %s\n", sink.records().size(), out.c_str());
  }
  const des::TraceSummary summary = des::summarize(sink.records());
  std::printf("trace summary (%llu records, t in [%.2f, %.2f]):\n",
              static_cast<unsigned long long>(summary.total), summary.first_time,
              summary.last_time);
  for (u32 k = 0; k <= static_cast<u32>(des::TraceKind::kUser); ++k) {
    const auto kind = static_cast<des::TraceKind>(k);
    if (summary.of(kind) > 0) {
      std::printf("  %-18s %llu\n", des::trace_kind_name(kind),
                  static_cast<unsigned long long>(summary.of(kind)));
    }
  }
  if (profile) print_prof_summary(profiler);
  const std::string prof_trace = args.get_string("profile-trace", "");
  if (!prof_trace.empty()) obs::write_host_trace(prof_trace, profiler);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "usage: mobichk_cli <run|figure|recover|trace|explain|audit|report> [--flags]\n"
      "       mobichk_cli <command> --help    for the command's flag list\n";
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fputs(kUsage, argc < 2 ? stderr : stdout);
    return argc < 2 ? 2 : 0;
  }
  const std::string cmd = argv[1];
  if (cmd != "run" && cmd != "figure" && cmd != "recover" && cmd != "trace" && cmd != "explain" &&
      cmd != "audit" && cmd != "report") {
    std::fprintf(stderr, "unknown command: %s\n%s", cmd.c_str(), kUsage);
    return 2;
  }
  try {
    const sim::FlagSet flags = make_flags(cmd);
    const sim::ArgParser args = flags.parse(argc - 1, argv + 1);
    if (args.get_flag("help")) {
      flags.print_help(std::cout);
      return 0;
    }
    if (args.get_flag("dump-config")) {
      // Every command shares the config layer, so the dump lives here:
      // the merged file+flags config, reloadable through --config.
      const auto [cfg, opts] = effective_config(args);
      sim::write_json(std::cout, cfg, opts);
      return 0;
    }
    if (cmd == "report") return cmd_report(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "figure") return cmd_figure(args);
    if (cmd == "recover") return cmd_recover(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "explain") return cmd_explain(args);
    return cmd_audit(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
