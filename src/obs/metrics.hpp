// Observability metrics: a typed registry of counters, gauges and
// fixed-bucket histograms.
//
// Design constraints (see docs/observability.md):
//  * Counts the run keeps anyway are published once, after the run; a
//    hot path that needs every sample holds a pre-resolved
//    `FixedHistogram*` (or `Counter*`) that is null when observability is
//    off, so an unobserved run pays one predictable branch and allocates
//    nothing.
//  * Metric updates never allocate: histograms pre-size their buckets at
//    registration time, and counters/gauges are plain words.
//  * Registration is idempotent by name (re-registering returns the
//    existing metric) and addresses are stable for the registry's life,
//    so probes can cache raw pointers.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "des/types.hpp"

namespace mobichk::obs {

/// Monotonic counter (events dispatched, bytes on the wire, ...).
class Counter {
 public:
  void add(u64 n = 1) noexcept { value_ += n; }
  u64 value() const noexcept { return value_; }

 private:
  u64 value_ = 0;
};

/// Last-write-wins instantaneous value (queue depth, high-water marks).
class Gauge {
 public:
  void set(f64 v) noexcept { value_ = v; }
  /// Keeps the maximum of the current and the offered value.
  void max_of(f64 v) noexcept {
    if (v > value_) value_ = v;
  }
  f64 value() const noexcept { return value_; }

 private:
  f64 value_ = 0.0;
};

/// Fixed-range histogram with uniform buckets plus under/overflow.
/// Buckets are allocated once at registration; add() never allocates.
class FixedHistogram {
 public:
  FixedHistogram(f64 lo, f64 hi, u32 buckets);

  void add(f64 x) noexcept;

  /// Adds a whole batch at once: buckets[i] values in bucket i (one entry
  /// per bucket), `overflow` values at or above hi and none below lo,
  /// summing to `sum` with extremes `min` and `max`. The result is the
  /// one add() per value gives whenever the values are integers and every
  /// running sum stays below 2^53, so that each partial sum is exact.
  void add_batch(std::span<const u64> buckets, u64 overflow, f64 sum, f64 min,
                 f64 max) noexcept;

  u64 count() const noexcept { return count_; }
  f64 sum() const noexcept { return sum_; }
  f64 mean() const noexcept { return count_ > 0 ? sum_ / static_cast<f64>(count_) : 0.0; }
  f64 min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  f64 max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  u64 underflow() const noexcept { return underflow_; }
  u64 overflow() const noexcept { return overflow_; }
  f64 lo() const noexcept { return lo_; }
  f64 hi() const noexcept { return hi_; }
  usize buckets() const noexcept { return counts_.size(); }
  u64 bucket_count(usize i) const { return counts_.at(i); }
  f64 bucket_lo(usize i) const noexcept { return lo_ + width_ * static_cast<f64>(i); }
  f64 bucket_hi(usize i) const noexcept { return lo_ + width_ * static_cast<f64>(i + 1); }

  /// Approximate quantile: linear interpolation inside the bucket.
  /// Underflow counts at lo, overflow at hi.
  f64 quantile(f64 q) const noexcept;

 private:
  f64 lo_;
  f64 hi_;
  f64 width_;
  std::vector<u64> counts_;
  u64 count_ = 0;
  f64 sum_ = 0.0;
  f64 min_ = 0.0;
  f64 max_ = 0.0;
  u64 underflow_ = 0;
  u64 overflow_ = 0;
};

/// One exported scalar. Histograms expand into several samples
/// (.count / .mean / .p50 / .p95 / .max).
struct MetricSample {
  std::string name;
  f64 value = 0.0;
};

/// Owner of all metrics of one observed run. Registration is by unique
/// name; returned references stay valid for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registers (or returns the existing) metric under `name`. Throws
  /// std::invalid_argument when the name is already bound to a metric of
  /// a different kind (or, for histograms, a different shape).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  FixedHistogram& histogram(std::string_view name, f64 lo, f64 hi, u32 buckets);

  /// Lookup without registration; nullptr when absent or wrong kind.
  const Counter* find_counter(std::string_view name) const noexcept;
  const Gauge* find_gauge(std::string_view name) const noexcept;
  const FixedHistogram* find_histogram(std::string_view name) const noexcept;

  /// Number of registered metrics.
  usize size() const noexcept { return entries_.size(); }

  /// Flattens every metric into scalar samples, in registration order
  /// (deterministic for goldens and JSON output).
  std::vector<MetricSample> snapshot() const;

  /// Visits (name, kind) in registration order; kind is one of
  /// "counter", "gauge", "histogram".
  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<FixedHistogram> histogram;
  };
  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  Entry* find_entry(std::string_view name) noexcept;
  const Entry* find_entry(std::string_view name) const noexcept;

  std::vector<Entry> entries_;
};

}  // namespace mobichk::obs
