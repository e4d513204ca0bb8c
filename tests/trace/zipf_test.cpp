#include "trace/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace twl {
namespace {

TEST(ZipfSampler, ExponentZeroIsUniform) {
  ZipfSampler z(8, 0.0);
  EXPECT_NEAR(z.top_probability(), 1.0 / 8.0, 1e-12);
}

TEST(ZipfSampler, TopProbabilityMatchesHarmonic) {
  ZipfSampler z(100, 1.0);
  EXPECT_NEAR(z.top_probability(), 1.0 / ZipfSampler::harmonic(100, 1.0),
              1e-12);
}

TEST(ZipfSampler, HarmonicKnownValues) {
  EXPECT_DOUBLE_EQ(ZipfSampler::harmonic(1, 1.0), 1.0);
  EXPECT_NEAR(ZipfSampler::harmonic(4, 1.0), 1 + 0.5 + 1.0 / 3 + 0.25,
              1e-12);
  EXPECT_DOUBLE_EQ(ZipfSampler::harmonic(5, 0.0), 5.0);
}

TEST(ZipfSampler, SamplesStayInRange) {
  ZipfSampler z(16, 1.2);
  XorShift64Star rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(z.sample(rng), 16u);
  }
}

TEST(ZipfSampler, EmpiricalTopFrequencyMatchesTheory) {
  ZipfSampler z(64, 1.0);
  XorShift64Star rng(2);
  const int n = 200000;
  int top = 0;
  for (int i = 0; i < n; ++i) {
    if (z.sample(rng) == 0) ++top;
  }
  EXPECT_NEAR(static_cast<double>(top) / n, z.top_probability(), 0.01);
}

TEST(ZipfSampler, MonotoneRankFrequencies) {
  ZipfSampler z(8, 1.5);
  XorShift64Star rng(3);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  for (int r = 1; r < 8; ++r) {
    EXPECT_GE(counts[r - 1], counts[r] - 300);
  }
}

/// The sampler's CDF, built here from its definition: the normalized
/// running sum of (k+1)^-s, its last entry pinned to 1.
std::vector<double> reference_cdf(std::uint64_t n, double s) {
  std::vector<double> cdf;
  double cum = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    cum += std::pow(static_cast<double>(k + 1), -s);
    cdf.push_back(cum);
  }
  for (double& c : cdf) c /= cum;
  cdf.back() = 1.0;
  return cdf;
}

/// The inverse-CDF draw by binary search: the rank every u in [0, 1)
/// selected before the guide table.
std::uint64_t lower_bound_rank(const std::vector<double>& cdf, double u) {
  return static_cast<std::uint64_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(ZipfSampler, RankOfEqualsLowerBound) {
  // s = 0 puts the CDF entries on the j/n boundaries the guide table
  // indexes by; 1.1986 is the canneal model's exponent at 256 pages.
  for (const std::uint64_t n : {1u, 2u, 3u, 256u, 65536u}) {
    for (const double s : {0.0, 0.426, 1.0, 1.1986, 3.0}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " s=" << s);
      const ZipfSampler z(n, s);
      const std::vector<double> cdf = reference_cdf(n, s);
      std::uint64_t mismatches = 0;
      const auto check = [&](double u) {
        if (u < 0.0 || u >= 1.0) return;
        if (z.rank_of(u) != lower_bound_rank(cdf, u)) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "u=" << u << " (" << std::hexfloat << u
                          << std::defaultfloat << "): rank_of "
                          << z.rank_of(u) << ", lower_bound "
                          << lower_bound_rank(cdf, u);
          }
        }
      };
      const auto check_around = [&](double x) {
        check(std::nextafter(x, 0.0));
        check(x);
        check(std::nextafter(x, 1.0));
      };
      check(0.0);
      check(std::nextafter(1.0, 0.0));
      for (const double c : cdf) check_around(c);
      for (std::uint64_t j = 0; j < n; ++j) {
        check_around(static_cast<double>(j) / static_cast<double>(n));
      }
      std::mt19937_64 gen(n * 1000003u + static_cast<std::uint64_t>(s * 1e4));
      for (int i = 0; i < 1000000; ++i) {
        check(static_cast<double>(gen() >> 11) * 0x1.0p-53);
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

TEST(ZipfSampler, SampleIsRankOfOneUniformDraw) {
  const ZipfSampler z(256, 1.1986);
  const std::vector<double> cdf = reference_cdf(256, 1.1986);
  XorShift64Star rng(11);
  XorShift64Star twin(11);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(z.sample(rng), lower_bound_rank(cdf, twin.next_double()));
  }
}

TEST(SolveExponent, RecoversKnownExponent) {
  const double s_true = 1.3;
  const double top = 1.0 / ZipfSampler::harmonic(1000, s_true);
  const double s = ZipfSampler::solve_exponent_for_top_fraction(1000, top);
  EXPECT_NEAR(s, s_true, 1e-6);
}

TEST(SolveExponent, UniformBoundary) {
  // top_frac barely above 1/n -> s near 0.
  const double s =
      ZipfSampler::solve_exponent_for_top_fraction(100, 0.0101);
  EXPECT_LT(s, 0.05);
}

TEST(SolveExponent, HighConcentration) {
  const double s = ZipfSampler::solve_exponent_for_top_fraction(100, 0.9);
  ZipfSampler z(100, s);
  EXPECT_NEAR(z.top_probability(), 0.9, 1e-6);
}

class SolveExponentRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(SolveExponentRoundTrip, TopFractionRoundTrips) {
  const double target = GetParam();
  const double s =
      ZipfSampler::solve_exponent_for_top_fraction(4096, target);
  ZipfSampler z(4096, s);
  EXPECT_NEAR(z.top_probability(), target, target * 1e-6 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SolveExponentRoundTrip,
                         ::testing::Values(0.001, 0.005, 0.01, 0.05, 0.2,
                                           0.5, 0.9));

}  // namespace
}  // namespace twl
