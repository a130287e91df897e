#include "sim/analysis.hpp"

#include <gtest/gtest.h>

namespace mobichk::sim {
namespace {

TEST(SteadyState, SpecValidation) {
  SteadyStateSpec spec;
  spec.window = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = SteadyStateSpec{};
  spec.cfg.sim_length = 100.0;
  spec.window = 50.0;  // fewer than 4 windows
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  ExperimentOptions opts;
  opts.protocols.clear();
  EXPECT_THROW(estimate_steady_state(SteadyStateSpec{}, opts), std::invalid_argument);
  // The window sampler reads the logs between events: sequential only.
  opts = ExperimentOptions{};
  opts.shards = 4;
  EXPECT_THROW(estimate_steady_state(SteadyStateSpec{}, opts), std::invalid_argument);
}

TEST(SteadyState, RatesMatchDirectCounts) {
  SteadyStateSpec spec;
  spec.cfg.sim_length = 40'000.0;
  spec.cfg.t_switch = 500.0;
  spec.cfg.p_switch = 0.8;
  spec.cfg.seed = 3;
  spec.window = 400.0;
  const auto estimates = estimate_steady_state(spec);
  ASSERT_EQ(estimates.size(), 3u);

  // Cross-check against the plain end-to-end counts: the steady-state
  // rate x horizon should be within ~15% of N_tot (warm-up shifts it a
  // little, which is the point).
  ExperimentOptions opts;
  const RunResult direct = run_experiment(spec.cfg, opts);
  for (usize s = 0; s < estimates.size(); ++s) {
    const f64 projected = estimates[s].rate * spec.cfg.sim_length;
    const f64 actual = static_cast<f64>(direct.protocols[s].n_tot);
    EXPECT_NEAR(projected / actual, 1.0, 0.15) << estimates[s].protocol;
    EXPECT_EQ(estimates[s].windows, 100u);
    EXPECT_GE(estimates[s].ci95, 0.0);
  }
  // The ranking survives the analysis.
  EXPECT_GT(estimates[0].rate, estimates[1].rate);  // TP > BCS
  EXPECT_GE(estimates[1].rate, estimates[2].rate);  // BCS >= QBC
}

TEST(SteadyState, WarmupStaysInFirstHalf) {
  SteadyStateSpec spec;
  spec.cfg.sim_length = 20'000.0;
  spec.window = 200.0;
  const auto estimates = estimate_steady_state(spec);
  for (const auto& est : estimates) {
    EXPECT_LE(est.warmup_windows, est.windows / 2 + spec.mser_batch);
  }
}

}  // namespace
}  // namespace mobichk::sim
