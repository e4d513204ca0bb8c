#include "trace/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
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

constexpr std::uint64_t kU53 = std::uint64_t{1} << 53;

TEST(ZipfSampler, RankOfEqualsLowerBound) {
  // rank_of takes the 53-bit draw x that next_double() scales to
  // u = x * 2^-53, the only values next_double() produces. s = 0 puts
  // the CDF entries on bucket edges; 1.1986 is the canneal model's
  // exponent at 256 pages.
  for (const std::uint64_t n : {1u, 2u, 3u, 256u, 65536u}) {
    for (const double s : {0.0, 0.426, 1.0, 1.1986, 3.0}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " s=" << s);
      const ZipfSampler z(n, s);
      const std::vector<double> cdf = reference_cdf(n, s);
      std::uint64_t mismatches = 0;
      const auto check = [&](std::uint64_t x) {
        if (x >= kU53) return;
        const double u = static_cast<double>(x) * 0x1.0p-53;
        if (z.rank_of(x) != lower_bound_rank(cdf, u)) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "x=" << x << " (u=" << std::hexfloat << u
                          << std::defaultfloat << "): rank_of "
                          << z.rank_of(x) << ", lower_bound "
                          << lower_bound_rank(cdf, u);
          }
        }
      };
      const auto check_around = [&](std::uint64_t x) {
        if (x > 0) check(x - 1);
        check(x);
        check(x + 1);
      };
      check(0);
      check(kU53 - 1);
      for (const double c : cdf) {
        check_around(static_cast<std::uint64_t>(c * 0x1.0p53));
      }
      // The guide indexes by the draw's top bits, one bucket per rank
      // rounded up to a power of two; check that grid and one twice as
      // fine.
      const int bits = std::bit_width(n - 1);
      for (const int b : {bits, bits + 1}) {
        const std::uint64_t width = kU53 >> b;
        for (std::uint64_t edge = 0; edge < kU53; edge += width) {
          check_around(edge);
        }
      }
      std::mt19937_64 gen(n * 1000003u + static_cast<std::uint64_t>(s * 1e4));
      for (int i = 0; i < 1000000; ++i) check(gen() >> 11);
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

TEST(ZipfSampler, RejectsRankCountsOutsideThe32BitRange) {
  for (const std::uint64_t n : {std::uint64_t{0},
                                (std::uint64_t{1} << 32) + 1}) {
    try {
      const ZipfSampler z(n, 1.0);
      ADD_FAILURE() << "n=" << n << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("n (ranks)"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ZipfSampler, RejectsAnExponentWithoutAFiniteCdf) {
  // -2000 is finite, but 2^2000 overflows the sum of the weights.
  for (const double s : {std::nan(""), HUGE_VAL, -HUGE_VAL, -2000.0}) {
    try {
      const ZipfSampler z(4, s);
      ADD_FAILURE() << "s=" << s << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("exponent s"), std::string::npos)
          << e.what();
    }
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
