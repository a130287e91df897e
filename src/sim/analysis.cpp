#include "sim/analysis.hpp"

#include <cmath>
#include <stdexcept>

#include "des/event.hpp"
#include "des/stats.hpp"
#include "des/warmup.hpp"

namespace mobichk::sim {

namespace {

/// Sampling chain: one event per window reads each protocol's log, then
/// reschedules its own payload while the next window fits the horizon.
struct WindowSampler final : des::EventTarget {
  Experiment& exp;
  const SteadyStateSpec& spec;
  std::vector<std::vector<f64>> series;  ///< Per-slot checkpoints per window.
  std::vector<u64> last_count;

  WindowSampler(Experiment& experiment, const SteadyStateSpec& steady, usize slots)
      : exp(experiment), spec(steady), series(slots), last_count(slots, 0) {}

  void on_event(const des::EventPayload& p) override {
    for (usize s = 0; s < series.size(); ++s) {
      const u64 now_count = exp.log(s).n_tot();
      series[s].push_back(static_cast<f64>(now_count - last_count[s]));
      last_count[s] = now_count;
    }
    if (exp.simulator().now() + spec.window <= spec.cfg.sim_length) {
      exp.simulator().schedule_after(spec.window, p);
    }
  }
};

}  // namespace

void SteadyStateSpec::validate() const {
  cfg.validate();
  if (window <= 0.0) throw std::invalid_argument("SteadyStateSpec: window must be positive");
  if (window * 4.0 > cfg.sim_length) {
    throw std::invalid_argument("SteadyStateSpec: need at least 4 windows in the horizon");
  }
  if (protocols.empty()) throw std::invalid_argument("SteadyStateSpec: no protocols");
}

std::vector<SteadyStateEstimate> estimate_steady_state(const SteadyStateSpec& spec) {
  spec.validate();
  ExperimentOptions opts;
  opts.protocols = spec.protocols;
  opts.params = spec.params;
  Experiment exp(spec.cfg, opts);

  const usize slots = spec.protocols.size();
  WindowSampler sampler(exp, spec, slots);
  // The kind is only a label: no observer is attached, so it reaches no
  // dispatch metric.
  des::EventPayload tick;
  tick.target = &sampler;
  tick.kind = des::EventKind::kWorkloadOp;
  exp.simulator().schedule_at(spec.window, tick);
  exp.run();
  const std::vector<std::vector<f64>>& series = sampler.series;

  std::vector<SteadyStateEstimate> out;
  out.reserve(slots);
  for (usize s = 0; s < slots; ++s) {
    const des::MserResult warmup = des::mser(series[s], spec.mser_batch);
    SteadyStateEstimate est;
    est.protocol = core::protocol_kind_name(spec.protocols[s]);
    est.windows = series[s].size();
    est.warmup_windows = warmup.truncation_index;
    est.rate = warmup.truncated_mean / spec.window;
    // Batch means over the post-warm-up windows for the CI.
    des::BatchMeans batches(spec.batch_windows);
    for (usize i = warmup.truncation_index; i < series[s].size(); ++i) {
      batches.add(series[s][i]);
    }
    est.ci95 = des::confidence_half_width(batches.batch_tally(), 0.95) / spec.window;
    out.push_back(std::move(est));
  }
  return out;
}

PrecisionResult run_until_precision(const PrecisionSpec& spec) {
  if (spec.min_seeds == 0 || spec.max_seeds < spec.min_seeds) {
    throw std::invalid_argument("PrecisionSpec: bad seed bounds");
  }
  ExperimentOptions opts;
  opts.protocols = spec.protocols;

  std::vector<des::Tally> tallies(spec.protocols.size());
  PrecisionResult out;
  for (u32 r = 0; r < spec.max_seeds; ++r) {
    SimConfig cfg = spec.base;
    cfg.seed = spec.seed_base + r;
    const RunResult run = run_experiment(cfg, opts);
    for (usize s = 0; s < spec.protocols.size(); ++s) {
      tallies[s].add(static_cast<f64>(run.protocols[s].n_tot));
    }
    out.seeds_used = r + 1;
    if (out.seeds_used < spec.min_seeds) continue;
    bool all_met = true;
    for (const auto& tally : tallies) {
      const f64 hw = des::confidence_half_width(tally, 0.95);
      if (tally.mean() <= 0.0 || hw / tally.mean() > spec.target_relative_ci) {
        all_met = false;
        break;
      }
    }
    if (all_met) {
      out.target_met = true;
      break;
    }
  }
  for (usize s = 0; s < spec.protocols.size(); ++s) {
    PrecisionEstimate est;
    est.protocol = core::protocol_kind_name(spec.protocols[s]);
    est.n_tot_mean = tallies[s].mean();
    est.ci95 = des::confidence_half_width(tallies[s], 0.95);
    out.protocols.push_back(std::move(est));
  }
  return out;
}

}  // namespace mobichk::sim
