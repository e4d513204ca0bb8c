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
  /// 1/(k+1)^s. s = 0 is uniform. Throws std::invalid_argument unless n
  /// lies in [1, 2^32] and s is finite with weights whose sum is finite.
  ZipfSampler(std::uint64_t n, double s);

  /// Draw a rank (0 = most popular).
  [[nodiscard]] std::uint64_t sample(XorShift64Star& rng) const {
    return rank_of(rng.next_u53());
  }

  /// The rank a 53-bit draw x < 2^53 selects: the first rank whose CDF
  /// entry is >= x * 2^-53, the index std::lower_bound over the double
  /// CDF returns for u = next_double(). cdf * 2^53 is exact, and for an
  /// integer x, cdf * 2^53 >= x exactly when floor(cdf * 2^53) >= x, so
  /// the search runs over those integer cuts. It starts at the guide
  /// entry of x's top bits, which is never past the answer, and only
  /// walks forward: O(1) expected steps, O(log n) at worst.
  [[nodiscard]] std::uint64_t rank_of(std::uint64_t x) const {
    assert(x < kU53);
    std::size_t k = guide_[x >> guide_shift_];
    // Most draws end within two ranks of their guide entry: take those
    // steps without a branch. Each stays at or below the answer.
    k += cuts_[k] < x;
    k += cuts_[k] < x;
    // A bucket averages about one rank, but a steep tail packs thousands
    // into one: after a few steps, binary-search the rest. cuts_.back()
    // is 2^53 > x, so neither search runs off the end.
    for (std::size_t step = 0; step < kLinearSteps; ++step, ++k) {
      if (cuts_[k] >= x) return k;
    }
    return static_cast<std::uint64_t>(
        std::lower_bound(cuts_.begin() + static_cast<std::ptrdiff_t>(k),
                         cuts_.end(), x) -
        cuts_.begin());
  }

  [[nodiscard]] double exponent() const { return s_; }
  [[nodiscard]] std::uint64_t size() const { return cuts_.size(); }

  /// Probability of the most popular rank.
  [[nodiscard]] double top_probability() const { return top_; }

  /// Generalized harmonic number H(n, s).
  [[nodiscard]] static double harmonic(std::uint64_t n, double s);

  /// Solve for the exponent s such that the hottest of `n` ranks receives
  /// a fraction `top_frac` of the traffic (i.e. 1/H(n,s) == top_frac).
  /// top_frac must lie in (1/n, 1]. Bisection to ~1e-12.
  [[nodiscard]] static double solve_exponent_for_top_fraction(
      std::uint64_t n, double top_frac);

 private:
  static constexpr std::uint64_t kU53 = std::uint64_t{1} << 53;
  /// Linear steps from the guide entry before the binary search.
  static constexpr std::size_t kLinearSteps = 8;

  double s_;
  double top_ = 1.0;  ///< The first normalized CDF entry.
  /// cuts_[k] = floor(cdf[k] * 2^53) of the normalized cumulative
  /// probabilities; the last is 2^53.
  std::vector<std::uint64_t> cuts_;
  /// guide_[b] is the first rank whose cut is >= b << guide_shift_: the
  /// least rank a draw with top bits b can select. 2^ceil(log2 n)
  /// buckets.
  std::vector<std::uint32_t> guide_;
  unsigned guide_shift_ = 53;
};

}  // namespace twl
