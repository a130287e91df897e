// Output-analysis statistics for simulation experiments.
#pragma once

#include <cmath>
#include <string>

#include "des/types.hpp"

namespace mobichk::des {

/// Streaming mean / variance accumulator (Welford's algorithm).
class Tally {
 public:
  void add(f64 x) noexcept {
    ++n_;
    const f64 delta = x - mean_;
    mean_ += delta / static_cast<f64>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  u64 count() const noexcept { return n_; }
  f64 mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance.
  f64 variance() const noexcept { return n_ > 1 ? m2_ / static_cast<f64>(n_ - 1) : 0.0; }
  f64 stddev() const noexcept { return std::sqrt(variance()); }
  f64 min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  f64 max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  f64 sum() const noexcept { return mean_ * static_cast<f64>(n_); }

  void reset() noexcept { *this = Tally{}; }

 private:
  u64 n_ = 0;
  f64 mean_ = 0.0;
  f64 m2_ = 0.0;
  f64 min_ = 1e300;
  f64 max_ = -1e300;
};

/// Batch-means estimator for steady-state simulation output.
///
/// Feeds observations into fixed-size batches; batch averages are
/// approximately independent, enabling confidence intervals on correlated
/// streams.
class BatchMeans {
 public:
  explicit BatchMeans(u64 batch_size) : batch_size_(batch_size == 0 ? 1 : batch_size) {}

  void add(f64 x) noexcept {
    batch_sum_ += x;
    if (++in_batch_ == batch_size_) {
      batches_.add(batch_sum_ / static_cast<f64>(batch_size_));
      batch_sum_ = 0.0;
      in_batch_ = 0;
    }
  }

  u64 completed_batches() const noexcept { return batches_.count(); }
  f64 mean() const noexcept { return batches_.mean(); }
  f64 stddev() const noexcept { return batches_.stddev(); }
  const Tally& batch_tally() const noexcept { return batches_; }

 private:
  u64 batch_size_;
  u64 in_batch_ = 0;
  f64 batch_sum_ = 0.0;
  Tally batches_;
};

/// Two-sided Student-t critical value for the given confidence level
/// (supported: 0.90, 0.95, 0.99) and degrees of freedom.
f64 student_t_critical(f64 confidence, u64 dof);

/// Symmetric confidence half-width for a Tally of (approximately)
/// independent observations.
f64 confidence_half_width(const Tally& tally, f64 confidence);

/// Relative precision of a Tally: confidence half-width divided by
/// |mean|. Degenerate inputs resolve conservatively so a stopping rule
/// built on this value can never declare precision it does not have:
///  * fewer than 2 observations -> +infinity (no variance estimate yet);
///  * mean == 0 with zero half-width -> 0 (every observation identical);
///  * mean == 0 with nonzero half-width -> +infinity.
f64 relative_half_width(const Tally& tally, f64 confidence);

/// Formats mean +/- half-width, e.g. "123.4 ± 5.6".
std::string format_ci(const Tally& tally, f64 confidence);

}  // namespace mobichk::des
