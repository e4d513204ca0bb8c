#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace twl {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

TEST(Geomean, KnownValues) {
  const std::vector<double> v{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(v), 4.0, 1e-12);
}

TEST(Geomean, SingleValue) {
  const std::vector<double> v{7.5};
  EXPECT_NEAR(geomean(v), 7.5, 1e-12);
}

TEST(Geomean, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(geomean(std::vector<double>{}), 0.0);
}

TEST(Geomean, IsBelowArithmeticMeanForSpreadValues) {
  const std::vector<double> v{1.0, 100.0};
  EXPECT_LT(geomean(v), 50.5);
  EXPECT_NEAR(geomean(v), 10.0, 1e-9);
}

// Regression: geomean used to assert() on non-positive input, which
// vanishes in release builds and silently returned log-of-garbage.
TEST(Geomean, ThrowsOnZero) {
  const std::vector<double> v{4.0, 0.0, 16.0};
  EXPECT_THROW((void)geomean(v), std::invalid_argument);
}

TEST(Geomean, ThrowsOnNegative) {
  const std::vector<double> v{4.0, -2.0};
  EXPECT_THROW((void)geomean(v), std::invalid_argument);
}

TEST(Geomean, ThrowsOnNaN) {
  const std::vector<double> v{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)geomean(v), std::invalid_argument);
}

TEST(Geomean, StillCorrectOnStrictlyPositiveInput) {
  const std::vector<double> v{0.5, 2.0};
  EXPECT_NEAR(geomean(v), 1.0, 1e-12);
}

TEST(CoefficientOfVariation, ZeroForConstant) {
  const std::vector<double> v{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(v), 0.0);
}

TEST(CoefficientOfVariation, MatchesDefinition) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(coefficient_of_variation(v), std::sqrt(32.0 / 7.0) / 5.0,
              1e-12);
}

}  // namespace
}  // namespace twl
