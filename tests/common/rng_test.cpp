#include "common/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace twl {
namespace {

TEST(SplitMix64, IsDeterministicForSameSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(XorShift64Star, ZeroSeedIsUsable) {
  XorShift64Star rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(XorShift64Star, DoublesAreInUnitInterval) {
  XorShift64Star rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(XorShift64Star, DoubleMeanIsNearHalf) {
  XorShift64Star rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(XorShift64Star, NextBelowStaysInRange) {
  XorShift64Star rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 4096ull, 1000000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(XorShift64Star, NextBelowIsRoughlyUniform) {
  XorShift64Star rng(5);
  std::array<int, 8> buckets{};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(8)];
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 8, n / 8 * 0.1);
  }
}

TEST(XorShift64Star, GaussianMomentsMatchStandardNormal) {
  XorShift64Star rng(17);
  double sum = 0;
  double sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(XorShift64Star, U53DrawIsWhatNextDoubleScales) {
  XorShift64Star a(17);
  XorShift64Star b(17);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(static_cast<double>(a.next_u53()) * 0x1.0p-53,
              b.next_double());
  }
}

TEST(XorShift64Star, U53CoinFlipsWhereTheDoubleComparisonDoes) {
  // x * 2^-53 < p must hold exactly for the draws x below u53_below(p):
  // check both draws at that edge. 0.6 * 2^53 has a fraction, 0.5 * 2^53
  // has none, and the ends of [0, 1] put the edge at 0 and 2^53.
  constexpr std::uint64_t kU53 = std::uint64_t{1} << 53;
  std::vector<double> ps = {0.0, 0x1.0p-53, 0x1.8p-53, 0.1, 0.5, 0.6,
                            0.95, 1.0 - 0x1.0p-53, 1.0};
  XorShift64Star rng(23);
  for (int i = 0; i < 1000; ++i) ps.push_back(rng.next_double());
  for (const double p : ps) {
    const std::uint64_t below = XorShift64Star::u53_below(p);
    ASSERT_LE(below, kU53) << p;
    if (below > 0) {
      EXPECT_LT(static_cast<double>(below - 1) * 0x1.0p-53, p) << p;
    }
    if (below < kU53) {
      EXPECT_FALSE(static_cast<double>(below) * 0x1.0p-53 < p) << p;
    }
  }
}

TEST(XorShift64Star, StepAdvancesABareStateAsNextDoes) {
  XorShift64Star rng(29);
  std::uint64_t state = rng.state();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(XorShift64Star::step(state), rng.next());
  }
  EXPECT_EQ(state, rng.state());
  XorShift64Star other(31);
  other.set_state(state);
  EXPECT_EQ(other.next(), rng.next());
}

TEST(Feistel8, EncryptIsAPermutationOfBytes) {
  // A Feistel network is bijective regardless of the round function.
  Feistel8 f(123);
  std::set<std::uint8_t> outputs;
  for (int p = 0; p < 256; ++p) {
    outputs.insert(f.encrypt(static_cast<std::uint8_t>(p)));
  }
  EXPECT_EQ(outputs.size(), 256u);
}

class Feistel8Seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Feistel8Seeds, PermutationHoldsForEverySeed) {
  Feistel8 f(GetParam());
  std::set<std::uint8_t> outputs;
  for (int p = 0; p < 256; ++p) {
    outputs.insert(f.encrypt(static_cast<std::uint8_t>(p)));
  }
  EXPECT_EQ(outputs.size(), 256u);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, Feistel8Seeds,
                         ::testing::Values(0ull, 1ull, 2ull, 42ull, 999ull,
                                           0xDEADBEEFull, 0xFFFFFFFFFFFFull));

TEST(Feistel8, CyclesThroughAll256BytesBeforeRepeating) {
  // next_byte() encrypts an incrementing counter, so the stream period
  // is exactly 256 and covers every byte value.
  Feistel8 f(77);
  std::set<std::uint8_t> seen;
  for (int i = 0; i < 256; ++i) seen.insert(f.next_byte());
  EXPECT_EQ(seen.size(), 256u);
}

TEST(Feistel8, AlphaIsInUnitIntervalWith8BitResolution) {
  Feistel8 f(9);
  for (int i = 0; i < 512; ++i) {
    const double a = f.next_alpha();
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 1.0);
    // Exactly k/256 for integer k.
    EXPECT_DOUBLE_EQ(a * 256.0, std::round(a * 256.0));
  }
}

TEST(Feistel8, AlphaMeanMatchesUniform) {
  Feistel8 f(31337);
  double sum = 0;
  for (int i = 0; i < 256; ++i) sum += f.next_alpha();
  // Over one full period the mean is exactly (0+..+255)/256/256.
  EXPECT_NEAR(sum / 256.0, 255.0 / 512.0, 1e-12);
}

}  // namespace
}  // namespace twl
