#include "trace/zipf.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace twl {

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : s_(s) {
  if (n == 0 || n > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "ZipfSampler: n (ranks) must lie in [1, 2^32], got " +
        std::to_string(n));
  }
  if (!std::isfinite(s)) {
    throw std::invalid_argument(
        "ZipfSampler: exponent s must be finite, got " + std::to_string(s));
  }
  // The CDF the draw is defined by is the normalized running sum of
  // (k+1)^-s, its last entry pinned to 1. Each cut is that entry times
  // 2^53 (exact), rounded down.
  std::vector<double> sums(n);
  double total = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    sums[k] = total;
  }
  if (!std::isfinite(total)) {
    throw std::invalid_argument("ZipfSampler: exponent s = " +
                                std::to_string(s) +
                                " makes the weights' sum overflow");
  }
  top_ = sums.front() / total;
  cuts_.resize(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    cuts_[k] = static_cast<std::uint64_t>(sums[k] / total * 0x1.0p53);
  }
  cuts_.back() = kU53;  // Guard against rounding.

  // One sweep: the bucket floors rise, so the rank only moves forward.
  // cuts_.back() is 2^53, above every floor, which keeps k in range.
  const int bits = std::bit_width(n - 1);
  guide_shift_ = static_cast<unsigned>(53 - bits);
  guide_.resize(std::size_t{1} << bits);
  std::uint32_t k = 0;
  for (std::uint64_t b = 0; b < guide_.size(); ++b) {
    while (cuts_[k] < b << guide_shift_) ++k;
    guide_[b] = k;
  }
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
