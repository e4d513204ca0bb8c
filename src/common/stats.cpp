#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace twl {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    // An assert alone would let release builds feed std::log garbage and
    // silently return NaN/-inf-derived results; fail loudly instead.
    if (!(v > 0.0)) {
      throw std::invalid_argument(
          "geomean requires strictly positive values, got " +
          std::to_string(v));
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double coefficient_of_variation(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.add(v);
  return s.mean() == 0.0 ? 0.0 : s.stddev() / s.mean();
}

}  // namespace twl
