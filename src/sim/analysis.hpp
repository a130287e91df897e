// Output analysis: steady-state checkpoint-rate estimation (single long
// run, MSER warm-up removal, batch-means confidence intervals).
// Precision-driven replication is run_figure (sim/sweep.hpp).
#pragma once

#include <string>
#include <vector>

#include "des/types.hpp"
#include "sim/config.hpp"
#include "sim/experiment.hpp"

namespace mobichk::sim {

struct SteadyStateSpec {
  SimConfig cfg;
  f64 window = 500.0;     ///< Sampling-window width (tu).
  usize mser_batch = 5;   ///< MSER batch size over the window series.
  u64 batch_windows = 4;  ///< Batch-means size for the CI (post-warm-up windows).

  void validate() const;
};

struct SteadyStateEstimate {
  std::string protocol;
  f64 rate = 0.0;          ///< Checkpoints per time unit, post-warm-up.
  f64 ci95 = 0.0;          ///< 95% half-width on the rate.
  usize windows = 0;       ///< Windows observed.
  usize warmup_windows = 0;///< Windows MSER discarded.
};

/// Runs one long simulation under `opts` (protocol set, params, ...),
/// sampling each protocol's checkpoint count per window, and returns
/// warm-up-corrected rate estimates. The sampler reads the logs between
/// events, so the run must be sequential and unobserved (shards > 1 or an
/// observer throw std::invalid_argument).
std::vector<SteadyStateEstimate> estimate_steady_state(const SteadyStateSpec& spec,
                                                       const ExperimentOptions& opts = {});

}  // namespace mobichk::sim
