// Zipf-distributed page sampling.
//
// The PARSEC workload models express each benchmark's write-locality skew
// as a Zipf exponent over its footprint; the exponent is *calibrated* so
// that the hottest page's traffic share reproduces the paper's measured
// no-wear-leveling lifetime (Table 2). See trace/parsec_model.h.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace twl {

class ZipfSampler {
 public:
  /// Zipf over ranks {0, .., n-1} with P(rank k) proportional to
  /// 1/(k+1)^s. s = 0 is uniform.
  ZipfSampler(std::uint64_t n, double s);

  /// Draw a rank (0 = most popular).
  [[nodiscard]] std::uint64_t sample(XorShift64Star& rng) const {
    return rank_of(rng.next_double());
  }

  /// The rank a uniform draw u in [0, 1) selects: the first rank whose
  /// CDF entry is >= u, the index std::lower_bound over the CDF returns.
  /// Found through the guide table (Chen-Asau indexed search) in O(1)
  /// expected steps and O(log n) at worst.
  [[nodiscard]] std::uint64_t rank_of(double u) const {
    assert(u >= 0.0 && u < 1.0);
    // u * n can round up to n for u just below 1: clamp.
    const std::size_t j = std::min(
        static_cast<std::size_t>(u * static_cast<double>(cdf_.size())),
        cdf_.size() - 1);
    std::size_t k = guide_[j];
    // The product can also round up past a j/n boundary, landing on a
    // guide entry beyond the answer: step back first.
    while (k > 0 && cdf_[k - 1] >= u) --k;
    // A bucket averages about one rank, but a steep tail packs thousands
    // into one: after a few steps, binary-search the rest. cdf_.back()
    // is 1.0 > u, so neither search runs off the end.
    for (std::size_t step = 0; step < kLinearSteps; ++step, ++k) {
      if (cdf_[k] >= u) return k;
    }
    return static_cast<std::uint64_t>(
        std::lower_bound(cdf_.begin() + static_cast<std::ptrdiff_t>(k),
                         cdf_.end(), u) -
        cdf_.begin());
  }

  [[nodiscard]] double exponent() const { return s_; }
  [[nodiscard]] std::uint64_t size() const { return cdf_.size(); }

  /// Probability of the most popular rank.
  [[nodiscard]] double top_probability() const;

  /// Generalized harmonic number H(n, s).
  [[nodiscard]] static double harmonic(std::uint64_t n, double s);

  /// Solve for the exponent s such that the hottest of `n` ranks receives
  /// a fraction `top_frac` of the traffic (i.e. 1/H(n,s) == top_frac).
  /// top_frac must lie in (1/n, 1]. Bisection to ~1e-12.
  [[nodiscard]] static double solve_exponent_for_top_fraction(
      std::uint64_t n, double top_frac);

 private:
  /// Linear steps from the guide entry before the binary search.
  static constexpr std::size_t kLinearSteps = 8;

  double s_;
  std::vector<double> cdf_;  ///< Normalized cumulative probabilities.
  /// guide_[j] is the first rank whose CDF entry is >= j/n.
  std::vector<std::uint32_t> guide_;
};

}  // namespace twl
