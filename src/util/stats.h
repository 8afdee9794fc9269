// Streaming statistics (Welford mean/variance, exact running quantile) and
// small aggregation helpers: mean ± stddev over random bench instances,
// sample percentiles for serving metrics, and the serving hedge trigger.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "util/error.h"

namespace hios {

/// Single-pass mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Rank of the lower order statistic the q-quantile of n values reads:
/// lo = floor(q * (n - 1)).
inline std::size_t quantile_rank(std::size_t n, double q) {
  return static_cast<std::size_t>(q * static_cast<double>(n - 1));
}

/// The q-quantile of n values by linear interpolation between the order
/// statistics at ranks lo = quantile_rank(n, q) and lo + 1 (lo alone when
/// lo = n - 1). `at(i)` returns the i-th smallest value; only those two
/// ranks are read, so a sorted vector and a two-heap split both serve.
template <class At>
double interpolate_quantile(const At& at, std::size_t n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = quantile_rank(n, q);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

/// Percentile of a sample (linear interpolation); q in [0,1].
inline double percentile(std::vector<double> xs, double q) {
  HIOS_CHECK(!xs.empty(), "percentile of empty sample");
  HIOS_CHECK(q >= 0.0 && q <= 1.0, "percentile q out of range: " << q);
  std::sort(xs.begin(), xs.end());
  return interpolate_quantile([&](std::size_t i) { return xs[i]; }, xs.size(), q);
}

/// Exact running q-quantile of a stream, O(log n) per push and bit-equal
/// to percentile() of every value pushed so far. Two heaps split the
/// stream at rank lo = quantile_rank(n, q): `below_` (a max-heap) holds
/// the lo + 1 smallest values, `above_` (a min-heap) the rest, so their
/// tops are exactly the two order statistics the interpolation reads.
class StreamingPercentile {
 public:
  explicit StreamingPercentile(double q) : q_(q) {
    HIOS_CHECK(q >= 0.0 && q <= 1.0, "percentile q out of range: " << q);
  }

  void push(double x) {
    if (below_.empty() || x <= below_.top()) {
      below_.push(x);
    } else {
      above_.push(x);
    }
    // lo moves by 0 or 1 per push, so this moves at most one value.
    const std::size_t want = quantile_rank(size(), q_) + 1;
    while (below_.size() > want) {
      above_.push(below_.top());
      below_.pop();
    }
    while (below_.size() < want) {
      below_.push(above_.top());
      above_.pop();
    }
  }

  std::size_t size() const { return below_.size() + above_.size(); }

  double value() const {
    HIOS_CHECK(size() > 0, "percentile of empty sample");
    return interpolate_quantile(
        [&](std::size_t i) { return i < below_.size() ? below_.top() : above_.top(); },
        size(), q_);
  }

 private:
  double q_;
  std::priority_queue<double> below_;
  std::priority_queue<double, std::vector<double>, std::greater<double>> above_;
};

/// Tail-latency summary of a latency sample (serving metrics, benches).
struct QuantileSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarises a sample; zeroes when empty (serving metrics may be empty).
inline QuantileSummary summarize_quantiles(const std::vector<double>& xs) {
  QuantileSummary q;
  if (xs.empty()) return q;
  q.count = xs.size();
  double sum = 0.0;
  for (double x : xs) sum += x;
  q.mean = sum / static_cast<double>(xs.size());
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](std::size_t i) { return sorted[i]; };
  q.p50 = interpolate_quantile(at, sorted.size(), 0.50);
  q.p95 = interpolate_quantile(at, sorted.size(), 0.95);
  q.p99 = interpolate_quantile(at, sorted.size(), 0.99);
  q.max = sorted.back();
  return q;
}

/// Geometric mean; all inputs must be positive.
inline double geomean(const std::vector<double>& xs) {
  HIOS_CHECK(!xs.empty(), "geomean of empty sample");
  double log_sum = 0.0;
  for (double x : xs) {
    HIOS_CHECK(x > 0.0, "geomean requires positive values, got " << x);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace hios
