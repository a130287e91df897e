#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace mobichk::obs {

FixedHistogram::FixedHistogram(f64 lo, f64 hi, u32 buckets)
    : lo_(lo), hi_(hi), width_(0.0), counts_(buckets > 0 ? buckets : 1, 0) {
  if (!(hi > lo)) throw std::invalid_argument("FixedHistogram: hi must exceed lo");
  width_ = (hi_ - lo_) / static_cast<f64>(counts_.size());
}

void FixedHistogram::add(f64 x) noexcept {
  if (std::isnan(x)) return;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  sum_ += x;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    usize idx = static_cast<usize>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge at hi
    ++counts_[idx];
  }
}

void FixedHistogram::add_batch(std::span<const u64> buckets, u64 overflow, f64 sum, f64 min,
                               f64 max) noexcept {
  u64 n = overflow;
  for (usize i = 0; i < buckets.size() && i < counts_.size(); ++i) {
    counts_[i] += buckets[i];
    n += buckets[i];
  }
  if (n == 0) return;
  if (count_ == 0) {
    min_ = min;
    max_ = max;
  } else {
    if (min < min_) min_ = min;
    if (max > max_) max_ = max;
  }
  count_ += n;
  sum_ += sum;
  overflow_ += overflow;
}

f64 FixedHistogram::quantile(f64 q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const f64 rank = q * static_cast<f64>(count_);
  f64 seen = static_cast<f64>(underflow_);
  if (rank <= seen) return lo_;
  for (usize i = 0; i < counts_.size(); ++i) {
    const f64 in_bucket = static_cast<f64>(counts_[i]);
    if (rank <= seen + in_bucket && in_bucket > 0.0) {
      const f64 frac = (rank - seen) / in_bucket;
      return bucket_lo(i) + frac * width_;
    }
    seen += in_bucket;
  }
  return hi_;
}

ScopedTimer::ScopedTimer(FixedHistogram* hist) noexcept : hist_(hist) {
  if (hist_ != nullptr) {
    start_ns_ = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
}

f64 ScopedTimer::stop() noexcept {
  if (hist_ == nullptr) return 0.0;
  const u64 now_ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  const f64 elapsed = static_cast<f64>(now_ns - start_ns_) * 1e-9;
  hist_->add(elapsed);
  hist_ = nullptr;
  return elapsed;
}

MetricRegistry::Entry* MetricRegistry::find_entry(std::string_view name) noexcept {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const MetricRegistry::Entry* MetricRegistry::find_entry(std::string_view name) const noexcept {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Counter& MetricRegistry::counter(std::string_view name) {
  if (Entry* e = find_entry(name)) {
    if (e->counter == nullptr) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered with a different kind");
    }
    return *e->counter;
  }
  Entry e;
  e.name = std::string(name);
  e.counter = std::make_unique<Counter>();
  entries_.push_back(std::move(e));
  return *entries_.back().counter;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  if (Entry* e = find_entry(name)) {
    if (e->gauge == nullptr) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered with a different kind");
    }
    return *e->gauge;
  }
  Entry e;
  e.name = std::string(name);
  e.gauge = std::make_unique<Gauge>();
  entries_.push_back(std::move(e));
  return *entries_.back().gauge;
}

FixedHistogram& MetricRegistry::histogram(std::string_view name, f64 lo, f64 hi, u32 buckets) {
  if (Entry* e = find_entry(name)) {
    if (e->histogram == nullptr) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered with a different kind");
    }
    if (e->histogram->buckets() != buckets || e->histogram->lo() != lo ||
        e->histogram->hi() != hi) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered with a different shape");
    }
    return *e->histogram;
  }
  Entry e;
  e.name = std::string(name);
  e.histogram = std::make_unique<FixedHistogram>(lo, hi, buckets);
  entries_.push_back(std::move(e));
  return *entries_.back().histogram;
}

const Counter* MetricRegistry::find_counter(std::string_view name) const noexcept {
  const Entry* e = find_entry(name);
  return e != nullptr ? e->counter.get() : nullptr;
}

const Gauge* MetricRegistry::find_gauge(std::string_view name) const noexcept {
  const Entry* e = find_entry(name);
  return e != nullptr ? e->gauge.get() : nullptr;
}

const FixedHistogram* MetricRegistry::find_histogram(std::string_view name) const noexcept {
  const Entry* e = find_entry(name);
  return e != nullptr ? e->histogram.get() : nullptr;
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size() * 2);
  for (const Entry& e : entries_) {
    if (e.counter != nullptr) {
      out.push_back({e.name, static_cast<f64>(e.counter->value())});
    } else if (e.gauge != nullptr) {
      out.push_back({e.name, e.gauge->value()});
    } else if (e.histogram != nullptr) {
      const FixedHistogram& h = *e.histogram;
      out.push_back({e.name + ".count", static_cast<f64>(h.count())});
      out.push_back({e.name + ".mean", h.mean()});
      out.push_back({e.name + ".p50", h.quantile(0.50)});
      out.push_back({e.name + ".p95", h.quantile(0.95)});
      out.push_back({e.name + ".max", h.max()});
    }
  }
  return out;
}

}  // namespace mobichk::obs
