#include "trace/zipf.h"

#include <cassert>
#include <cmath>

namespace twl {

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : s_(s) {
  assert(n > 0 && n - 1 <= UINT32_MAX);  // Ranks fit the guide table.
  cdf_.reserve(n);
  double cum = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    cum += std::pow(static_cast<double>(k + 1), -s);
    cdf_.push_back(cum);
  }
  const double total = cdf_.back();
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // Guard against rounding.

  // One sweep: the thresholds j/n rise, so the rank only moves forward.
  // cdf_.back() is 1.0 > j/n, which keeps k in range.
  guide_.resize(n);
  std::uint32_t k = 0;
  for (std::uint64_t j = 0; j < n; ++j) {
    const double threshold = static_cast<double>(j) / static_cast<double>(n);
    while (cdf_[k] < threshold) ++k;
    guide_[j] = k;
  }
}

double ZipfSampler::top_probability() const {
  return cdf_.front();
}

double ZipfSampler::harmonic(std::uint64_t n, double s) {
  double h = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    h += std::pow(static_cast<double>(k), -s);
  }
  return h;
}

double ZipfSampler::solve_exponent_for_top_fraction(std::uint64_t n,
                                                    double top_frac) {
  assert(n > 1);
  assert(top_frac > 1.0 / static_cast<double>(n) && top_frac <= 1.0);
  // 1/H(n, s) is monotonically increasing in s: bisect.
  double lo = 0.0;
  double hi = 64.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double top = 1.0 / harmonic(n, mid);
    if (top < top_frac) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace twl
