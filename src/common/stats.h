// Streaming statistics used by the simulators and report generators.
#pragma once

#include <cstddef>
#include <span>

namespace twl {

/// Welford-style running mean / variance / extrema.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< Sample variance (n-1).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Geometric mean of strictly positive values. The paper reports Gmean
/// across attacks (Figure 6) and benchmarks (Figures 8/9). Throws
/// std::invalid_argument on any non-positive (or NaN) value — callers
/// that can legitimately produce zeros floor them explicitly (the
/// benches use max(value, epsilon)) so the choice is visible at the
/// call site instead of silently returning garbage.
[[nodiscard]] double geomean(std::span<const double> values);

/// Coefficient of variation (stddev / mean) of a set of values; the
/// standard single-number summary of how even a wear distribution is.
[[nodiscard]] double coefficient_of_variation(std::span<const double> values);

}  // namespace twl
