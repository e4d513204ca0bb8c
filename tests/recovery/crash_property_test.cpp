// Property test for the crash-consistency subsystem: every scheme (and
// decorator composition) survives a power failure injected at hundreds of
// uniformly random points — mid-swap, mid-journal-append, torn and
// garbage-tailed logs included — with all five recovery invariants intact
// (see sim/crash_sim.h).
#include "sim/crash_sim.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/config.h"
#include "wl/factory.h"

namespace twl {
namespace {

constexpr std::uint64_t kTrials = 200;

Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 100000;  // No page wears out during a trial.
  return Config::scaled(scale);
}

class CrashPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashPropertyTest, AllInvariantsHoldAtRandomCrashPoints) {
  CrashSimParams params;
  params.scheme_spec = GetParam();
  params.total_writes = 256;
  params.snapshot_interval = 64;
  const CrashSimulator sim(small_config(), params);

  std::uint64_t torn = 0;
  std::uint64_t garbage = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t commits_survived = 0;
  std::uint64_t orphan_intents = 0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const CrashTrialResult r = sim.run_trial(trial);
    ASSERT_TRUE(r.verdicts.all_hold())
        << GetParam() << " trial " << trial << ": crash at write "
        << r.crash_write << " (cut " << r.cut_bytes << " bytes, torn="
        << r.torn_tail << ", garbage=" << r.garbage_tail << ", orphans="
        << r.orphan_swap_intents << ") recovered to " << r.committed_writes
        << " — bijective=" << r.verdicts.mapping_bijective << " reference="
        << r.verdicts.state_matches_reference
        << " rollback=" << r.verdicts.rollback_consistent
        << " wear=" << r.verdicts.wear_drift_bounded << " continuation="
        << r.verdicts.continuation_matches;
    torn += r.torn_tail ? 1 : 0;
    garbage += r.garbage_tail ? 1 : 0;
    rollbacks += r.commit_survived ? 0 : 1;
    commits_survived += r.commit_survived ? 1 : 0;
    orphan_intents += r.orphan_swap_intents;
  }

  // The trial distribution must actually exercise the hard cases: torn
  // appends, garbage tails and in-flight rollbacks all occur. (Clean cuts
  // and surviving commits are rarer — single byte positions — so they are
  // reported but not required per scheme.)
  EXPECT_GT(torn, 0u) << GetParam();
  EXPECT_GT(garbage, 0u) << GetParam();
  EXPECT_GT(rollbacks, 0u) << GetParam();
  RecordProperty("torn", static_cast<int>(torn));
  RecordProperty("commits_survived", static_cast<int>(commits_survived));
  RecordProperty("orphan_swap_intents", static_cast<int>(orphan_intents));
}

std::vector<std::string> crash_specs() {
  std::vector<std::string> specs;
  for (const Scheme s : all_schemes()) specs.push_back(to_string(s));
  specs.emplace_back("od3p:TWL");
  specs.emplace_back("guard:TWL_swp");
  specs.emplace_back("guard:od3p:TWL_swp");
  return specs;
}

std::string spec_test_name(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == ':') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CrashPropertyTest,
                         ::testing::ValuesIn(crash_specs()),
                         spec_test_name);

// The constructor's checks hold in every build type: with zero writes a
// trial would still crash at write 1, a zero interval divides by zero,
// and a fault model's retirements fall outside the replay model.
TEST(CrashSimulator, RejectsNonsenseInput) {
  CrashSimParams no_writes;
  no_writes.total_writes = 0;
  EXPECT_THROW(CrashSimulator(small_config(), no_writes),
               std::invalid_argument);
  CrashSimParams no_interval;
  no_interval.snapshot_interval = 0;
  EXPECT_THROW(CrashSimulator(small_config(), no_interval),
               std::invalid_argument);
  Config faulty = small_config();
  faulty.fault.ecp_k = 2;
  EXPECT_THROW(CrashSimulator(faulty, CrashSimParams{}),
               std::invalid_argument);
  EXPECT_NO_THROW(CrashSimulator(small_config(), CrashSimParams{}));
}

}  // namespace
}  // namespace twl
