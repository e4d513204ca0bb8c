// Tests for the TWL extensions beyond the paper: remaining-endurance bias
// and the adaptive toss-up interval.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "wl/shadow_sink.h"
#include "wl/tossup_wl.h"

namespace twl {
namespace {

TwlParams base_params(std::uint32_t interval) {
  TwlParams p;
  p.tossup_interval = interval;
  p.interpair_swap_interval = 0;
  p.pairing = PairingPolicy::kAdjacent;
  return p;
}

TEST(TossUpRemainingBias, EqualizesWearRatesOnUnequalPair) {
  // 4:1 endurance pair under hammer traffic. Remaining-endurance bias
  // should keep *fractional* wear of both pages close; the static bias
  // merely keeps the expected rates proportional.
  TwlParams p = base_params(1);
  p.bias = TossBias::kRemainingEndurance;
  EnduranceMap map(std::vector<std::uint64_t>{80000, 20000});
  TossUpWl wl(map, p, WlLatencies{}, 27, 4);

  // Count physical wear with a custom sink.
  struct WearSink final : WriteSink {
    std::uint64_t wear[2] = {0, 0};
    void demand_write(PhysicalPageAddr pa, LogicalPageAddr) override {
      ++wear[pa.value()];
    }
    void migrate(PhysicalPageAddr, PhysicalPageAddr to,
                 WritePurpose) override {
      ++wear[to.value()];
    }
    void swap_pages(PhysicalPageAddr a, PhysicalPageAddr b,
                    WritePurpose) override {
      ++wear[a.value()];
      ++wear[b.value()];
    }
    void engine_delay(Cycles) override {}
  } sink;

  for (int i = 0; i < 50000; ++i) wl.write(LogicalPageAddr(0), sink);
  const double frac0 = static_cast<double>(sink.wear[0]) / 80000.0;
  const double frac1 = static_cast<double>(sink.wear[1]) / 20000.0;
  EXPECT_NEAR(frac0 / frac1, 1.0, 0.35);
}

TEST(TossUpAdaptive, IntervalRisesUnderSwapHeavyTraffic) {
  // Equal-endurance pairs under random traffic at interval 1: swap ratio
  // ~0.5, far above the 2.2% target, so the interval must climb well away
  // from 1. (Random rather than cyclic traffic, so toss-up bursts do not
  // phase-lock with the adaptation window.)
  TwlParams p = base_params(1);
  p.adaptive_interval = true;
  p.adaptation_window = 512;
  EnduranceMap map(std::vector<std::uint64_t>(64, 1000000));
  TossUpWl wl(map, p, WlLatencies{}, 27, 5);
  testing::ShadowSink sink(64);
  XorShift64Star rng(55);
  for (int i = 0; i < 40000; ++i) {
    wl.write(LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(64))),
             sink);
  }
  EXPECT_GE(wl.current_interval(), 8u);
}

TEST(TossUpAdaptive, IntervalFallsWhenSwapsAreCheap) {
  // Start at 128; consistent single-page traffic on a lopsided pair
  // almost never swaps (Case-2), so the interval should fall toward more
  // frequent (cheap) leveling.
  TwlParams p = base_params(128);
  p.adaptive_interval = true;
  p.adaptation_window = 512;
  EnduranceMap map(std::vector<std::uint64_t>{1000000, 1000});
  TossUpWl wl(map, p, WlLatencies{}, 27, 6);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 30000; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_LT(wl.current_interval(), 128u);
}

TEST(TossUpAdaptive, IntervalStaysInBounds) {
  TwlParams p = base_params(32);
  p.adaptive_interval = true;
  p.adaptation_window = 256;
  p.adaptive_interval_max = 64;
  EnduranceMap map(std::vector<std::uint64_t>(32, 100000));
  TossUpWl wl(map, p, WlLatencies{}, 27, 7);
  testing::ShadowSink sink(32);
  XorShift64Star rng(8);
  for (int i = 0; i < 50000; ++i) {
    wl.write(LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(32))),
             sink);
  }
  EXPECT_GE(wl.current_interval(), 1u);
  EXPECT_LE(wl.current_interval(), 64u);
  EXPECT_TRUE(wl.invariants_hold());
}

// Doubling 32 -> 64 -> 128 -> 256 would overshoot a 255 ceiling to an
// interval the 8-bit WCT never counts to, and the toss-up would stop
// firing. The doubling clamps at the ceiling, where the toss-up still
// fires.
TEST(TossUpAdaptive, DoublingClampsAtTheCeiling) {
  TwlParams p = base_params(32);
  p.adaptive_interval = true;
  p.adaptive_interval_max = kMaxTossupInterval;
  p.adaptation_window = 4096;
  p.target_swap_ratio = 1e-6;  // Any swap reads as too many: double.
  EnduranceMap map(std::vector<std::uint64_t>{1000000, 1000000});
  TossUpWl wl(map, p, WlLatencies{}, 27, 9);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 6 * 4096; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_EQ(wl.current_interval(), kMaxTossupInterval);
  const std::uint64_t before = wl.tossups();
  for (std::uint32_t i = 0; i < 2 * kMaxTossupInterval; ++i) {
    wl.write(LogicalPageAddr(0), sink);
  }
  EXPECT_GT(wl.tossups(), before);
  EXPECT_FALSE(sink.first_integrity_violation(wl).has_value());
}

TEST(TossUpAdaptive, ConvergesNearTargetRatio) {
  TwlParams p = base_params(1);
  p.adaptive_interval = true;
  p.adaptation_window = 1024;
  p.target_swap_ratio = 0.05;
  EnduranceMap map(std::vector<std::uint64_t>(64, 10000000));
  TossUpWl wl(map, p, WlLatencies{}, 27, 9);
  testing::ShadowSink sink(64);
  // Scan traffic: swap probability per toss ~1/2, so ratio ~1/(2*interval):
  // target 5% => interval ~8-16.
  for (int i = 0; i < 200000; ++i) {
    wl.write(LogicalPageAddr(static_cast<std::uint32_t>(i % 64)), sink);
  }
  EXPECT_GE(wl.current_interval(), 4u);
  EXPECT_LE(wl.current_interval(), 32u);
}

TEST(TossUpExtensions, StatsIncludeIntervalState) {
  TwlParams p = base_params(4);
  p.adaptive_interval = true;
  EnduranceMap map(std::vector<std::uint64_t>(8, 1000));
  TossUpWl wl(map, p, WlLatencies{}, 27, 10);
  std::vector<std::pair<std::string, double>> stats;
  wl.append_stats(stats);
  bool has_interval = false;
  bool has_adaptations = false;
  for (const auto& [k, _] : stats) {
    has_interval |= k == "interval";
    has_adaptations |= k == "interval_adaptations";
  }
  EXPECT_TRUE(has_interval);
  EXPECT_TRUE(has_adaptations);
}

TEST(TossUpExtensions, DataIntegrityWithAllExtensionsOn) {
  TwlParams p;
  p.tossup_interval = 4;
  p.interpair_swap_interval = 64;
  p.pairing = PairingPolicy::kStrongWeak;
  p.bias = TossBias::kRemainingEndurance;
  p.adaptive_interval = true;
  p.adaptation_window = 512;
  EnduranceParams ep;
  ep.mean = 1e6;
  const EnduranceMap map(128, ep, 11);
  TossUpWl wl(map, p, WlLatencies{}, 27, 12);
  testing::ShadowSink sink(128);
  XorShift64Star rng(13);
  for (int i = 0; i < 30000; ++i) {
    wl.write(
        LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(128))),
        sink);
  }
  EXPECT_FALSE(sink.first_integrity_violation(wl).has_value());
  EXPECT_TRUE(wl.invariants_hold());
}

}  // namespace
}  // namespace twl
