// Config::validate() must reject out-of-domain parameters with an
// exception that names the offending field, and the simulators must call
// it up front — a bad CLI sweep should fail in milliseconds, not after an
// hour of simulation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/config.h"
#include "sim/lifetime_sim.h"

namespace twl {
namespace {

Config valid_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 256;
  return Config::scaled(scale);
}

/// The thrown message must mention the field so the user can find the
/// offending flag without reading source.
void expect_rejects(const Config& config, const std::string& field) {
  try {
    config.validate();
    FAIL() << "expected validate() to reject " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message '" << e.what() << "' does not name " << field;
  }
}

TEST(ConfigValidate, AcceptsDefaultsAndScaledConfigs) {
  EXPECT_NO_THROW(Config{}.validate());
  EXPECT_NO_THROW(valid_config().validate());
}

TEST(ConfigValidate, RejectsDegenerateGeometry) {
  Config c = valid_config();
  c.geometry.page_bytes = 0;
  expect_rejects(c, "geometry.page_bytes");

  c = valid_config();
  c.geometry.line_bytes = c.geometry.page_bytes * 2;
  expect_rejects(c, "geometry.line_bytes");

  c = valid_config();
  c.geometry.capacity_bytes = 0;
  expect_rejects(c, "geometry.capacity_bytes");
}

TEST(ConfigValidate, RejectsBadEndurance) {
  Config c = valid_config();
  c.endurance.mean = 0.0;
  expect_rejects(c, "endurance.mean");

  c = valid_config();
  c.endurance.sigma_frac = -0.1;
  expect_rejects(c, "endurance.sigma_frac");

  c = valid_config();
  c.endurance.table_bits = 0;
  expect_rejects(c, "endurance.table_bits");
  c.endurance.table_bits = 33;
  expect_rejects(c, "endurance.table_bits");
}

TEST(ConfigValidate, RejectsBadSchemeKnobs) {
  Config c = valid_config();
  c.twl.tossup_interval = 0;
  expect_rejects(c, "twl.tossup_interval");
  // The WCT counter saturates at 255: a longer interval never fires.
  c.twl.tossup_interval = kMaxTossupInterval + 1;
  expect_rejects(c, "twl.tossup_interval");
  c.twl.tossup_interval = kMaxTossupInterval;
  EXPECT_NO_THROW(c.validate());

  c = valid_config();
  c.twl.adaptive_interval_max = kMaxTossupInterval + 1;
  expect_rejects(c, "twl.adaptive_interval_max");

  c = valid_config();
  c.bwl.epoch_max = c.bwl.epoch_min - 1;
  expect_rejects(c, "bwl.epoch_max");

  c = valid_config();
  c.wrl.swap_fraction = 0.0;
  expect_rejects(c, "wrl.swap_fraction");
  c.wrl.swap_fraction = 1.5;
  expect_rejects(c, "wrl.swap_fraction");

  c = valid_config();
  c.rbsg.region_pages = 1;
  expect_rejects(c, "rbsg.region_pages");

  c = valid_config();
  c.start_gap.gap_write_interval = 0;
  expect_rejects(c, "start_gap.gap_write_interval");
}

TEST(ConfigValidate, RejectsBadFaultParams) {
  Config c = valid_config();
  c.fault.fault_gap_frac = 0.0;
  expect_rejects(c, "fault.fault_gap_frac");

  c = valid_config();
  c.fault.spare_pages = static_cast<std::uint32_t>(c.geometry.pages());
  expect_rejects(c, "fault.spare_pages");
}

TEST(ConfigValidate, SimulatorConstructorsValidate) {
  Config c = valid_config();
  c.twl.tossup_interval = 0;
  EXPECT_THROW(LifetimeSimulator sim(c), std::invalid_argument);
}

}  // namespace
}  // namespace twl
