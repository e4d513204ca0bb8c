// Checkpoint envelope: round-trip identity, damage detection, and the
// run-identity gate (a checkpoint only resumes into the run it came from).
#include "fleet/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/cli.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/sim_runner.h"
#include "fleet/chaos.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"

namespace twl {
namespace {

Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 1e6;
  return Config::scaled(scale);
}

Scenario small_scenario() {
  Scenario s = ScenarioRegistry::builtin().find("corruption_twl");
  s.horizon_days = 4;
  return s;
}

/// A mid-run state with real content: journals, artifacts, outcomes.
FleetState advanced_state(const Config& config, const Scenario& scenario) {
  const FleetSimulator sim(config, scenario);
  SimRunner runner(1);
  FleetState state = sim.fresh_state();
  sim.advance(state, scenario.horizon_days / 2, runner);
  return state;
}

TEST(Checkpoint, RoundTripReproducesTheExactFleetState) {
  const Config config = small_config();
  const Scenario scenario = small_scenario();
  const FleetState state = advanced_state(config, scenario);

  const auto blob = CheckpointManager::serialize(config, scenario, state);
  const FleetState back =
      CheckpointManager::deserialize(config, scenario, blob);
  EXPECT_TRUE(back == state);
  // And re-serialization is byte-identical (no hidden nondeterminism).
  EXPECT_EQ(CheckpointManager::serialize(config, scenario, back), blob);
}

TEST(Checkpoint, EveryBitFlipIsDetected) {
  const Config config = small_config();
  const Scenario scenario = small_scenario();
  const auto blob = CheckpointManager::serialize(config, scenario,
                                                 advanced_state(config,
                                                                scenario));
  // Stride through the blob so header, device payloads and CRC tail are
  // all covered without 8*size deserialization attempts.
  const std::size_t stride = blob.size() / 97 + 1;
  for (std::size_t bit = 0; bit < blob.size() * 8; bit += stride * 8 + 3) {
    auto damaged = blob;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(
        (void)CheckpointManager::deserialize(config, scenario, damaged),
        CheckpointError)
        << "flip at bit " << bit << " went undetected";
  }
}

TEST(Checkpoint, TruncationAndExtensionAreDetected) {
  const Config config = small_config();
  const Scenario scenario = small_scenario();
  const auto blob = CheckpointManager::serialize(config, scenario,
                                                 advanced_state(config,
                                                                scenario));
  XorShift64Star rng(5);
  for (int trial = 0; trial < 32; ++trial) {
    auto damaged = blob;
    truncate_random(damaged, rng);
    EXPECT_THROW(
        (void)CheckpointManager::deserialize(config, scenario, damaged),
        CheckpointError);
    auto extended = blob;
    extend_garbage(extended, rng);
    EXPECT_THROW(
        (void)CheckpointManager::deserialize(config, scenario, extended),
        CheckpointError);
  }
  EXPECT_THROW((void)CheckpointManager::deserialize(config, scenario, {}),
               CheckpointError);
}

TEST(Checkpoint, RefusesACheckpointFromADifferentRun) {
  const Config config = small_config();
  const Scenario scenario = small_scenario();
  const auto blob = CheckpointManager::serialize(config, scenario,
                                                 advanced_state(config,
                                                                scenario));

  {
    Scenario other = scenario;
    other.name = "someone_else";
    try {
      (void)CheckpointManager::deserialize(config, other, blob);
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(scenario.name),
                std::string::npos)
          << e.what();
    }
  }
  {
    Scenario other = scenario;
    other.scheme_spec = "SR";
    EXPECT_THROW((void)CheckpointManager::deserialize(config, other, blob),
                 CheckpointError);
  }
  {
    Config other = config;
    other.seed = config.seed + 1;
    EXPECT_THROW(
        (void)CheckpointManager::deserialize(other, scenario, blob),
        CheckpointError);
  }
  {
    Config other = config;
    other.geometry = config.geometry.scaled_to_pages(128);
    EXPECT_THROW(
        (void)CheckpointManager::deserialize(other, scenario, blob),
        CheckpointError);
  }
  {
    Scenario other = scenario;
    other.devices = scenario.devices + 1;
    EXPECT_THROW((void)CheckpointManager::deserialize(config, other, blob),
                 CheckpointError);
  }
}

TEST(Checkpoint, FileTransportRoundTripsAndReportsMissingFiles) {
  const Config config = small_config();
  const Scenario scenario = small_scenario();
  const FleetState state = advanced_state(config, scenario);
  const auto blob = CheckpointManager::serialize(config, scenario, state);

  const std::string path =
      ::testing::TempDir() + "twl_checkpoint_test.bin";
  CheckpointManager::write_file(path, blob);
  EXPECT_EQ(CheckpointManager::read_file(path), blob);
  std::remove(path.c_str());

  EXPECT_THROW((void)CheckpointManager::read_file(path + ".missing"),
               CheckpointError);
}

// --resume hands operator-supplied paths to load_for_resume, which must
// turn any checkpoint problem into a CliError (a std::invalid_argument,
// so run_cli_main prints message + usage and exits 2 instead of
// std::terminate on an escaped CheckpointError). The message names the
// offending path and the expected 'TWLC' envelope.
TEST(Checkpoint, LoadForResumeSurfacesDamageAsCliError) {
  const Config config = small_config();
  const Scenario scenario = small_scenario();
  const FleetState state = advanced_state(config, scenario);
  const auto blob = CheckpointManager::serialize(config, scenario, state);

  const auto expect_cli_error = [&](const std::string& path) {
    try {
      (void)CheckpointManager::load_for_resume(path, config, scenario);
      FAIL() << "expected CliError for " << path;
    } catch (const CliError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("TWLC"), std::string::npos) << what;
    }
  };

  const std::string dir = ::testing::TempDir();
  expect_cli_error(dir + "twl_resume_missing.bin");

  // Truncated mid-header: shorter than the CRC tail needs.
  const std::string truncated = dir + "twl_resume_truncated.bin";
  CheckpointManager::write_file(
      truncated, std::vector<std::uint8_t>(blob.begin(), blob.begin() + 3));
  expect_cli_error(truncated);

  // Corrupted first magic byte (caught by the CRC gate).
  auto wrong_magic = blob;
  wrong_magic[0] ^= 0xFF;
  const std::string bad_magic = dir + "twl_resume_badmagic.bin";
  CheckpointManager::write_file(bad_magic, wrong_magic);
  expect_cli_error(bad_magic);

  // And an intact checkpoint still resumes.
  const std::string good = dir + "twl_resume_good.bin";
  CheckpointManager::write_file(good, blob);
  EXPECT_TRUE(CheckpointManager::load_for_resume(good, config, scenario) ==
              state);
  std::remove(truncated.c_str());
  std::remove(bad_magic.c_str());
  std::remove(good.c_str());
}

// The tests above check round trips and damage detection, which any
// self-consistent field order passes. This one pins the bytes: the full
// corruption_twl fleet (crashes, snapshot fallbacks, two rotations) at
// day 5, size and CRC-32 as recorded before DeviceState was regrouped.
// The CRC skips the blob's own 4-byte CRC tail: over the whole blob it
// would be the constant CRC residue whatever the content.
TEST(Checkpoint, BytesAtDayFiveMatchThePinnedSizeAndCrc) {
  const Config config = small_config();
  const Scenario& scenario =
      ScenarioRegistry::builtin().find("corruption_twl");
  const FleetSimulator sim(config, scenario);
  SimRunner runner(1);
  FleetState state = sim.fresh_state();
  sim.advance(state, 5, runner);
  const auto blob = CheckpointManager::serialize(config, scenario, state);

  EXPECT_EQ(blob.size(), 26915u);
  EXPECT_EQ(crc32(blob.data(), blob.size() - 4), 0x04B1821Fu);
}

}  // namespace
}  // namespace twl
