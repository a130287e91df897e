#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/factory.hpp"
#include "des/rng.hpp"
#include "sim/cli.hpp"

namespace mobichk::sim {

std::vector<RunResult> run_parallel(const std::vector<SimConfig>& configs,
                                    const ExperimentOptions& opts, u32 threads) {
  std::vector<RunResult> results(configs.size());
  if (configs.empty()) return results;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<u32>(threads, static_cast<u32>(configs.size()));

  std::atomic<usize> next{0};
  auto worker = [&] {
    for (;;) {
      const usize i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      results[i] = run_experiment(configs[i], opts);
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (u32 t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return results;
}

f64 FigureSpec::metric_value(const RunResult& run, usize protocol) const {
  return metric ? metric(run, protocol) : static_cast<f64>(run.protocols.at(protocol).n_tot);
}

u64 FigureSpec::replication_seed(usize point, u32 replication) const noexcept {
  // Keyed on (figure, point, replication): the title hash separates
  // figures that share a seed_base, and the (point, replication) index is
  // collision-free by construction — unlike seed_base + p * seeds + r,
  // which reused seeds across points whenever the replication count
  // changed.
  return des::RngStream::derive_seed(seed_base ^ des::hash_key(title), "sweep/replication",
                                     (static_cast<u64>(point) << 32) |
                                         static_cast<u64>(replication));
}

void FigureSpec::validate() const {
  if (t_switch_values.empty()) throw std::invalid_argument("FigureSpec: no sweep points");
  if (min_seeds == 0) throw std::invalid_argument("FigureSpec: min_seeds must be >= 1");
  if (max_seeds < min_seeds) {
    throw std::invalid_argument("FigureSpec: max_seeds must be >= min_seeds");
  }
  if (!(target_relative_ci > 0.0)) {
    throw std::invalid_argument("FigureSpec: target_relative_ci must be positive");
  }
}

StopDecision evaluate_stopping_rule(const std::vector<std::vector<f64>>& samples,
                                    u32 min_seeds, u32 max_seeds, f64 target_relative_ci,
                                    f64 confidence) {
  usize available = samples.empty() ? 0 : samples.front().size();
  for (const auto& series : samples) available = std::min(available, series.size());
  const u32 limit = static_cast<u32>(std::min<usize>(available, max_seeds));

  StopDecision decision;
  decision.seeds_used = limit;
  std::vector<des::Tally> tallies(samples.size());
  for (u32 n = 1; n <= limit; ++n) {
    for (usize k = 0; k < samples.size(); ++k) tallies[k].add(samples[k][n - 1]);
    if (n < min_seeds) continue;
    bool all_met = true;
    for (const auto& tally : tallies) {
      if (des::relative_half_width(tally, confidence) > target_relative_ci) {
        all_met = false;
        break;
      }
    }
    if (all_met) {
      decision.seeds_used = n;
      decision.target_met = true;
      break;
    }
  }
  return decision;
}

f64 FigureResult::gain_percent(usize point, usize a, usize b) const {
  const f64 na = mean(point, a);
  const f64 nb = mean(point, b);
  if (na <= 0.0) return 0.0;
  return 100.0 * (na - nb) / na;
}

f64 FigureResult::max_relative_spread() const {
  f64 worst = 0.0;
  for (const auto& row : cells) {
    for (const auto& tally : row) {
      if (tally.count() < 2 || tally.mean() <= 0.0) continue;
      const f64 half_spread = (tally.max() - tally.min()) / 2.0;
      worst = std::max(worst, half_spread / tally.mean());
    }
  }
  return worst;
}

bool FigureResult::all_targets_met() const {
  return std::all_of(target_met.begin(), target_met.end(), [](bool met) { return met; });
}

namespace {

/// RFC 4180 CSV field quoting: wrap fields containing separators or
/// quotes, doubling embedded quotes (a comma in a protocol name used to
/// shift every following header column).
std::string csv_field(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

/// Escapes a string for a double-quoted gnuplot token (a raw " in a
/// figure title used to terminate the string mid-script).
std::string gnuplot_quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

void write_ledger_comments(std::ostream& os, const FigureResult& result) {
  const SweepLedger& ledger = result.ledger;
  os << "# precision: target " << 100.0 * result.target_relative_ci
     << "% relative 95% CI, met at "
     << std::count(result.target_met.begin(), result.target_met.end(), true) << "/"
     << result.target_met.size() << " points\n";
  os << "# ledger: replications " << ledger.replications_used << " used / "
     << ledger.replications_run << " run (cap " << ledger.replication_cap << "), "
     << ledger.events_executed << " events, " << ledger.wall_seconds << " s, "
     << ledger.events_per_second() << " events/s\n";
}

}  // namespace

void FigureResult::print(std::ostream& os) const {
  const std::ios::fmtflags flags = os.flags();
  const std::streamsize precision = os.precision();
  os << title << "\n";
  os << std::setw(10) << "Tswitch";
  for (const auto& name : protocol_names) {
    os << std::setw(12) << name << std::setw(10) << "+/-";
  }
  os << std::setw(8) << "reps" << "\n";
  for (usize p = 0; p < t_switch_values.size(); ++p) {
    os << std::setw(10) << std::fixed << std::setprecision(0) << t_switch_values[p];
    for (usize k = 0; k < protocol_names.size(); ++k) {
      const des::Tally& tally = cells[p][k];
      os << std::setw(12) << std::setprecision(1) << tally.mean() << std::setw(10)
         << std::setprecision(1) << des::confidence_half_width(tally, 0.95);
    }
    os << std::setw(7) << seeds_used[p] << (target_met[p] ? " " : "!");
    os << "\n";
  }
  os.unsetf(std::ios::fixed);
  os << "precision: target " << std::setprecision(3) << 100.0 * target_relative_ci
     << "% relative 95% CI, met at "
     << std::count(target_met.begin(), target_met.end(), true) << "/" << target_met.size()
     << " points ('!' rows hit the max-seeds cap)\n";
  os << "ledger: replications " << ledger.replications_used << " used / "
     << ledger.replications_run << " run (cap " << ledger.replication_cap << "), "
     << ledger.events_executed << " events, " << std::setprecision(3) << ledger.wall_seconds
     << " s, " << std::setprecision(3) << ledger.events_per_second() << " events/s\n";
  os.flags(flags);
  os.precision(precision);
  os.flush();
}

void FigureResult::write_csv(std::ostream& os) const {
  os << "t_switch";
  for (const auto& name : protocol_names) {
    os << "," << csv_field(name + "_mean") << "," << csv_field(name + "_ci95") << ","
       << csv_field(name + "_min") << "," << csv_field(name + "_max");
  }
  os << ",replications,target_met\n";
  for (usize p = 0; p < t_switch_values.size(); ++p) {
    os << t_switch_values[p];
    for (usize k = 0; k < protocol_names.size(); ++k) {
      const des::Tally& tally = cells[p][k];
      os << "," << tally.mean() << "," << des::confidence_half_width(tally, 0.95) << ","
         << tally.min() << "," << tally.max();
    }
    os << "," << seeds_used[p] << "," << (target_met[p] ? 1 : 0) << "\n";
  }
  write_ledger_comments(os, *this);
  os.flush();
}

void FigureResult::write_gnuplot(std::ostream& os) const {
  os << "# gnuplot script generated by mobichk\n";
  write_ledger_comments(os, *this);
  os << "set title " << gnuplot_quoted(title) << "\n";
  os << "set xlabel \"T_{switch}\"\nset ylabel \"N_{tot}\"\n";
  os << "set logscale xy\nset key top right\nset grid\n";
  os << "plot ";
  for (usize k = 0; k < protocol_names.size(); ++k) {
    if (k > 0) os << ", ";
    os << "'-' using 1:2:3 with yerrorlines title " << gnuplot_quoted(protocol_names[k]);
  }
  os << "\n";
  for (usize k = 0; k < protocol_names.size(); ++k) {
    for (usize p = 0; p < t_switch_values.size(); ++p) {
      const des::Tally& tally = cells[p][k];
      os << t_switch_values[p] << ' ' << tally.mean() << ' '
         << des::confidence_half_width(tally, 0.95) << '\n';
    }
    os << "e\n";
  }
  os.flush();
}

FigureResult run_figure(const FigureSpec& spec, const ExperimentOptions& opts, u32 threads) {
  spec.validate();
  // Checked here: Experiment would throw it on a pool thread, which
  // terminates the process.
  if (opts.protocols.empty()) throw std::invalid_argument("run_figure: no protocols");
  const auto wall_start = std::chrono::steady_clock::now();

  // Sweep-level observability runs on this thread only: a RunObserver is
  // not shareable across workers, so the per-run observer is detached and
  // replication/convergence probes are recorded between rounds.
  obs::RunObserver* observer = opts.observer;
  ExperimentOptions run_opts = opts;
  run_opts.observer = nullptr;
  // Likewise a Profiler's lane 0 would be shared by every concurrent
  // sequential replication; sweeps report cost through the ledger instead.
  run_opts.profiler = nullptr;
  // A trace sink would interleave every replication's records.
  run_opts.trace_sink = nullptr;

  const usize n_points = spec.t_switch_values.size();
  const usize n_protocols = opts.protocols.size();
  const u32 batch = spec.batch_size == 0 ? 2 : spec.batch_size;

  struct PointState {
    std::vector<RunResult> runs;  ///< In replication order.
    u32 dispatched = 0;
    bool done = false;
    StopDecision decision;
  };
  std::vector<PointState> points(n_points);

  FigureResult out;
  out.ledger.replication_cap = static_cast<u64>(n_points) * spec.max_seeds;
  out.ledger.point_wall_seconds.assign(n_points, 0.0);

  // Adaptive rounds: dispatch the next deterministic batch for every
  // unfinished point, run the whole round through the pool, then advance
  // each point's sequential stopping rule. The set of jobs in a round is
  // a pure function of the spec and the per-point replication counts, so
  // neither the thread count nor the batch size can change the cells.
  while (true) {
    std::vector<SimConfig> configs;
    std::vector<usize> job_point;
    for (usize p = 0; p < n_points; ++p) {
      PointState& st = points[p];
      if (st.done) continue;
      const u32 want = st.dispatched == 0 ? spec.min_seeds : batch;
      const u32 upto = std::min(spec.max_seeds, st.dispatched + want);
      for (u32 r = st.dispatched; r < upto; ++r) {
        SimConfig cfg = spec.base;
        cfg.t_switch = spec.t_switch_values[p];
        cfg.seed = spec.replication_seed(p, r);
        configs.push_back(cfg);
        job_point.push_back(p);
      }
      st.dispatched = upto;
    }
    if (configs.empty()) break;

    std::vector<RunResult> round = run_parallel(configs, run_opts, threads);
    out.ledger.replications_run += round.size();
    for (usize j = 0; j < round.size(); ++j) {
      out.ledger.events_executed += round[j].events_executed;
      out.ledger.shards = round[j].shards;  // uniform across the sweep
      out.ledger.sync_rounds += round[j].sync_rounds;
      out.ledger.barrier_stall_seconds += round[j].barrier_stall_seconds;
      out.ledger.point_wall_seconds[job_point[j]] += round[j].wall_seconds;
      PointState& st = points[job_point[j]];
      if (observer != nullptr) {
        observer->sweep_probe()->replications->add();
        observer->sweep_probe()->replication_wall->add(round[j].wall_seconds);
        obs::ProbeEvent e;
        e.kind = obs::ProbeKind::kReplication;
        e.t = static_cast<f64>(st.runs.size());  // replication index within the point
        e.actor = static_cast<i32>(job_point[j]);
        e.a = st.runs.size();
        e.value = round[j].wall_seconds;
        observer->timeline().record(e);
      }
      st.runs.push_back(std::move(round[j]));
    }

    for (usize p = 0; p < n_points; ++p) {
      PointState& st = points[p];
      if (st.done) continue;
      std::vector<std::vector<f64>> samples(n_protocols);
      for (usize k = 0; k < n_protocols; ++k) {
        samples[k].reserve(st.runs.size());
        for (const RunResult& run : st.runs) {
          samples[k].push_back(spec.metric_value(run, k));
        }
      }
      st.decision = evaluate_stopping_rule(samples, spec.min_seeds, spec.max_seeds,
                                           spec.target_relative_ci);
      if (observer != nullptr && !st.runs.empty()) {
        // Convergence trajectory: the worst relative CI half-width across
        // protocol cells, given everything this point has run so far.
        f64 worst = 0.0;
        for (usize k = 0; k < n_protocols; ++k) {
          des::Tally tally;
          for (const f64 v : samples[k]) tally.add(v);
          worst = std::max(worst, des::relative_half_width(tally, 0.95));
        }
        observer->sweep_probe()->last_half_width->set(worst);
        obs::ProbeEvent e;
        e.kind = obs::ProbeKind::kConvergence;
        e.t = static_cast<f64>(st.runs.size());
        e.actor = static_cast<i32>(p);
        e.a = st.runs.size();
        e.value = worst;
        observer->timeline().record(e);
      }
      if (st.decision.target_met || st.dispatched >= spec.max_seeds) st.done = true;
    }
  }

  out.title = spec.title;
  out.t_switch_values = spec.t_switch_values;
  out.target_relative_ci = spec.target_relative_ci;
  for (const auto kind : opts.protocols) {
    out.protocol_names.emplace_back(core::protocol_kind_name(kind));
  }
  out.cells.assign(n_points, std::vector<des::Tally>(n_protocols));
  out.seeds_used.reserve(n_points);
  out.target_met.reserve(n_points);
  for (usize p = 0; p < n_points; ++p) {
    const PointState& st = points[p];
    // Only the replications up to the stopping index enter the cells;
    // batch overshoot past it is discarded (but accounted in the ledger).
    for (u32 r = 0; r < st.decision.seeds_used; ++r) {
      for (usize k = 0; k < n_protocols; ++k) {
        out.cells[p][k].add(spec.metric_value(st.runs[r], k));
      }
    }
    out.seeds_used.push_back(st.decision.seeds_used);
    out.target_met.push_back(st.decision.target_met);
    out.ledger.replications_used += st.decision.seeds_used;
  }
  out.ledger.wall_seconds =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

void apply_cli_flags(FigureSpec& spec, const ArgParser& args) {
  if (args.has("seeds")) {
    // Legacy fixed-replication mode: exactly n replications per point.
    const u32 seeds = args.get_u32("seeds", spec.min_seeds);
    spec.min_seeds = seeds;
    spec.max_seeds = seeds;
  }
  spec.target_relative_ci = args.get_f64("precision", spec.target_relative_ci);
  spec.min_seeds = args.get_u32("min-seeds", spec.min_seeds);
  // A lone --min-seeds above the default cap lifts the cap with it; an
  // explicitly inconsistent --max-seeds still fails spec.validate().
  spec.max_seeds = args.get_u32("max-seeds", std::max(spec.max_seeds, spec.min_seeds));
  spec.batch_size = args.get_u32("batch", spec.batch_size);
  spec.seed_base = args.get_u64("seed-base", spec.seed_base);
}

}  // namespace mobichk::sim
