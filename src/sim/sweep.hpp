// Parallel experiment sweeps: run many independent simulations across a
// thread pool and aggregate per-point, per-protocol statistics.
//
// Every simulation is fully determined by its SimConfig (including the
// seed), so runs are embarrassingly parallel; the pool simply hands out
// job indices. On top of that, run_figure() is an *adaptive-precision*
// engine: replications are dispatched in deterministic batches and each
// sweep point stops as soon as the 95% CI relative half-width of every
// protocol cell reaches the target precision (the paper reports
// replications "within 4% of each other"), bounded by min_seeds/max_seeds.
// The stopping decision is evaluated sequentially in replication order,
// so the reported cells are bit-identical for any thread count and any
// batch size.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "des/stats.hpp"
#include "sim/experiment.hpp"

namespace mobichk::sim {

class ArgParser;

/// Runs every (cfg, opts) job, possibly concurrently, and returns results
/// in job order. `threads` = 0 picks the hardware concurrency.
std::vector<RunResult> run_parallel(const std::vector<SimConfig>& configs,
                                    const ExperimentOptions& opts, u32 threads = 0);

/// Specification of one paper figure: N_tot vs T_switch. The protocol set
/// is the run_figure options' (ExperimentOptions::protocols).
struct FigureSpec {
  std::string title;
  SimConfig base;                       ///< p_switch / heterogeneity / length set here.
  std::vector<f64> t_switch_values{100, 200, 500, 1'000, 2'000, 5'000, 10'000};

  /// Stop a point once every protocol cell's relative 95% CI half-width
  /// is at or below this (0.04 = the paper's 4% spread).
  f64 target_relative_ci = 0.04;
  u32 min_seeds = 3;   ///< Replications always run per point (>= 1).
  u32 max_seeds = 16;  ///< Hard cap per point (>= min_seeds). min == max turns adaptivity off.
  /// Replications dispatched per adaptive round after the initial
  /// min_seeds round; 0 picks a small default. Affects only scheduling
  /// overshoot, never the reported cells.
  u32 batch_size = 0;
  u64 seed_base = 42;  ///< Root of the replication seed derivation.

  /// What each protocol cell measures: metric(run, protocol_slot).
  /// Unset (the default) means the paper's N_tot. The adaptive stopping
  /// rule targets whatever this returns, so custom metrics get the same
  /// precision control as checkpoint counts.
  std::function<f64(const RunResult&, usize)> metric;

  /// `metric` if set, else N_tot of the slot.
  f64 metric_value(const RunResult& run, usize protocol) const;

  /// Root seed of replication `replication` of sweep point `point`:
  /// an RngStream substream keyed on (figure title + seed_base, point,
  /// replication). Unlike the old `seed_base + p * seeds + r` scheme it
  /// cannot collide across points when the replication count changes,
  /// and two figures with different titles never share seeds.
  u64 replication_seed(usize point, u32 replication) const noexcept;

  void validate() const;  ///< Throws std::invalid_argument on bad bounds.
};

/// Outcome of the sequential stopping rule for one sweep point.
struct StopDecision {
  u32 seeds_used = 0;      ///< Replications the reported cells include.
  bool target_met = false; ///< True iff the precision target was reached.
};

/// The adaptive stopping rule, factored out for testability: scans
/// n = min_seeds .. min(N, max_seeds) over the ordered replication values
/// (samples[protocol][replication], each series of equal length N) and
/// returns the first n at which every protocol's relative CI half-width
/// is <= target. If no n qualifies, seeds_used = min(N, max_seeds) and
/// target_met = false (callers dispatch more replications while
/// N < max_seeds). Evaluating per-replication rather than per-batch is
/// what makes run_figure's output independent of the batch size.
StopDecision evaluate_stopping_rule(const std::vector<std::vector<f64>>& samples,
                                    u32 min_seeds, u32 max_seeds, f64 target_relative_ci,
                                    f64 confidence = 0.95);

/// Per-run cost accounting of one sweep, aggregated over every simulation
/// the engine executed (including replications dispatched past a point's
/// stopping index; those are discarded from the cells but still paid for).
/// Informational only: wall_seconds and events_per_second vary run to run,
/// so determinism tests must not compare ledgers.
struct SweepLedger {
  f64 wall_seconds = 0.0;
  u64 events_executed = 0;
  u64 replications_run = 0;   ///< Simulations executed (includes overshoot).
  u64 replications_used = 0;  ///< Sum of seeds_used over the points.
  u64 replication_cap = 0;    ///< points x max_seeds.
  u32 shards = 1;             ///< Spatial shards each replication ran with.
  u64 sync_rounds = 0;        ///< Barrier windows, summed over replications.
  /// Coordinator barrier wait, summed (wall time; informational only,
  /// like wall_seconds). Always recorded: 0.0 for sequential sweeps, so
  /// cost reports diff cleanly across shard counts.
  f64 barrier_stall_seconds = 0.0;
  /// Per-point replication wall seconds (index = sweep point), summed
  /// over every replication dispatched for the point — overshoot past
  /// the stopping index included, because its cost was paid. The
  /// attribution knob for "which point is eating the budget".
  std::vector<f64> point_wall_seconds;

  f64 events_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<f64>(events_executed) / wall_seconds : 0.0;
  }
};

/// Aggregated sweep outcome: cells[point][protocol] tallies N_tot across
/// the replications the stopping rule accepted.
struct FigureResult {
  std::string title;
  std::vector<f64> t_switch_values;
  std::vector<std::string> protocol_names;
  std::vector<std::vector<des::Tally>> cells;  ///< [point][protocol].

  f64 target_relative_ci = 0.0;   ///< Echo of the spec's precision target.
  std::vector<u32> seeds_used;    ///< Replications accepted per point.
  std::vector<bool> target_met;   ///< Per point: precision target reached?
  SweepLedger ledger;

  /// Mean N_tot of `protocol` at `point`.
  f64 mean(usize point, usize protocol) const { return cells.at(point).at(protocol).mean(); }

  /// Relative gain of protocol `b` over `a` at `point`:
  /// (N_a - N_b) / N_a, in percent.
  f64 gain_percent(usize point, usize a, usize b) const;

  /// Largest relative half-spread across replications (the paper reports
  /// "within 4% of each other").
  f64 max_relative_spread() const;

  /// True iff every point reached the precision target.
  bool all_targets_met() const;

  /// Paper-style table: one row per T_switch, one column per protocol,
  /// followed by the precision/ledger footer.
  void print(std::ostream& os) const;
  void write_csv(std::ostream& os) const;

  /// Self-contained gnuplot script (inline data, log-log axes like the
  /// paper's figures). Pipe into gnuplot to render.
  void write_gnuplot(std::ostream& os) const;
};

/// Runs the adaptive sweep on `threads` workers, one cell per protocol in
/// opts.protocols (empty throws std::invalid_argument). Per point,
/// replications run in deterministic batches until the stopping rule
/// fires or max_seeds is reached; the reported cells depend only on the
/// spec and the options.
FigureResult run_figure(const FigureSpec& spec, const ExperimentOptions& opts = {},
                        u32 threads = 0);

/// Applies the shared sweep CLI flags to a spec: --seeds=<n> (fixed
/// replication: min = max = n), --precision=<rel>, --min-seeds, --max-seeds,
/// --batch, --seed-base. Used by mobichk_cli and every figure/ABL bench.
void apply_cli_flags(FigureSpec& spec, const ArgParser& args);

}  // namespace mobichk::sim
