#include "fleet/fleet.h"

#include <algorithm>
#include <stdexcept>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/sim_runner.h"
#include "obs/metrics.h"
#include "recovery/snapshot.h"
#include "fleet/workload.h"
#include "sim/memory_controller.h"
#include "wl/wear_leveler.h"

namespace twl {

namespace {

/// Independent per-device seed streams, all derived from the config seed
/// so the whole fleet is one deterministic function of (config, scenario).
struct DeviceSeeds {
  std::uint64_t endurance = 0;  ///< PV map draw.
  std::uint64_t scheme = 0;     ///< Scheme-internal RNG streams.
  std::uint64_t workload = 0;   ///< Write-address stream.
  std::uint64_t schedule = 0;   ///< Chaos event schedule.
  std::uint64_t chaos_rng = 0;  ///< Crash-cut / corruption draws.
};

DeviceSeeds device_seeds(std::uint64_t config_seed, std::uint32_t device) {
  SplitMix64 mix(config_seed ^ (0xF1EE'7D0C'0000'0000ULL + device));
  DeviceSeeds s;
  s.endurance = mix.next();
  s.scheme = mix.next();
  s.workload = mix.next();
  s.schedule = mix.next();
  s.chaos_rng = mix.next();
  return s;
}

/// The fleet config with this device's scheme seed. The scenario decides
/// the storage substrate; backend knobs (block geometry, cache shape)
/// ride through from the fleet config.
Config per_device_config(const Config& fleet_config, const Scenario& scenario,
                         const DeviceSeeds& seeds) {
  Config c = fleet_config;
  c.seed = seeds.scheme;
  c.device.backend = scenario.device_backend;
  return c;
}

}  // namespace

/// One thawed (running) device: its journaled stack plus the workload
/// stream that drives it.
struct FleetSimulator::Live {
  JournaledStack stack;
  FleetStream stream;
  std::uint64_t workload_seed;  ///< For reference-stream reconstruction.
  std::uint64_t writes_done = 0;

  Live(const Config& fleet_config, const Scenario& scenario,
       const DeviceSeeds& seeds)
      : stack(per_device_config(fleet_config, scenario, seeds),
              scenario.scheme_spec, seeds.endurance,
              make_chaos_schedule(scenario.chaos, scenario.horizon_writes(),
                                  seeds.schedule),
              seeds.chaos_rng),
        stream(scenario.workload, stack.scheme().logical_pages(),
               seeds.workload),
        workload_seed(seeds.workload) {}

  [[nodiscard]] DeviceState freeze() const {
    return DeviceState{.writes_done = writes_done, .stack = stack.freeze()};
  }
};

FleetSimulator::FleetSimulator(const Config& config, const Scenario& scenario)
    : config_(config), scenario_(scenario) {
  config_.validate();
  if (config_.fault.enabled()) {
    throw std::invalid_argument(
        "fleet scenarios require the binary wear-out model (no fault "
        "model, no retirement): crash recovery replays demand writes "
        "only");
  }
  if (scenario_.devices == 0 || scenario_.writes_per_day == 0 ||
      scenario_.horizon_days == 0 || scenario_.snapshot_interval_days == 0) {
    throw std::invalid_argument(
        "fleet scenario '" + scenario_.name +
        "': devices, horizon_days, writes_per_day and "
        "snapshot_interval_days must all be positive");
  }
}

FleetState FleetSimulator::fresh_state() const {
  FleetState state;
  state.devices.reserve(scenario_.devices);
  for (std::uint32_t dev = 0; dev < scenario_.devices; ++dev) {
    state.devices.push_back(
        Live(config_, scenario_, device_seeds(config_.seed, dev)).freeze());
  }
  return state;
}

std::uint64_t FleetSimulator::run_device(DeviceState& cold,
                                         std::uint32_t device,
                                         std::uint32_t from_day,
                                         std::uint32_t until_day) const {
  Live d(config_, scenario_, device_seeds(config_.seed, device));
  JournaledStack& st = d.stack;
  st.thaw(cold.stack);
  d.stream.skip(cold.writes_done);
  d.writes_done = cold.writes_done;
  // The reference re-draws the workload stream from the used snapshot's
  // base: the committed writes, then the continuation probe.
  const ReferenceAddresses reference = [&](std::uint64_t base,
                                           std::uint64_t committed) {
    FleetStream replay(scenario_.workload, st.scheme().logical_pages(),
                       d.workload_seed);
    replay.skip(base);
    std::vector<LogicalPageAddr> las(committed - base +
                                     kContinuationProbeWrites);
    for (LogicalPageAddr& la : las) la = replay.next();
    return las;
  };
  const std::uint64_t writes_before = d.writes_done;
  for (std::uint32_t day = from_day; day < until_day; ++day) {
    for (std::uint64_t i = 0; i < scenario_.writes_per_day; ++i) {
      const std::uint64_t k = d.writes_done + 1;
      const LogicalPageAddr la = d.stream.next();
      if (const ChaosEvent* ev = st.take_event(k)) {
        st.crash(*ev, la, k, reference);
      } else {
        st.controller().submit({Op::kWrite, la}, 0);
      }
      d.writes_done = k;
    }
    if ((day + 1) % scenario_.snapshot_interval_days == 0) {
      st.rotate(d.writes_done);
    }
  }
  cold = d.freeze();
  return d.writes_done - writes_before;
}

void FleetSimulator::advance(FleetState& state, std::uint32_t until_day,
                             SimRunner& runner) const {
  if (state.devices.size() != scenario_.devices) {
    throw std::invalid_argument(
        "fleet state has " + std::to_string(state.devices.size()) +
        " devices, scenario '" + scenario_.name + "' expects " +
        std::to_string(scenario_.devices));
  }
  const std::uint32_t target =
      std::min(until_day, scenario_.horizon_days);
  if (target <= state.day) return;

  std::vector<SimCell> cells;
  cells.reserve(scenario_.devices);
  for (std::uint32_t dev = 0; dev < scenario_.devices; ++dev) {
    cells.push_back([this, &state, dev, from = state.day, target] {
      return run_device(state.devices[dev], dev, from, target);
    });
  }
  runner.run_all(cells);
  state.day = target;
}

FleetResult FleetSimulator::finalize(const FleetState& state,
                                     MetricsRegistry* metrics) const {
  FleetResult result;
  result.scenario = scenario_.name;
  result.devices.reserve(state.devices.size());

  std::vector<std::uint8_t> digest_bytes;
  for (std::size_t i = 0; i < state.devices.size(); ++i) {
    const DeviceState& s = state.devices[i];
    DeviceReport rep;
    rep.device = static_cast<std::uint32_t>(i);
    rep.committed_writes = s.writes_done;
    rep.outcome = s.stack.outcome;
    rep.journal_bytes = s.stack.journal_total_bytes;
    rep.state_digest = state_digest(s.stack.scheme, s.stack.device_wear);
    for (int b = 0; b < 4; ++b) {
      digest_bytes.push_back(
          static_cast<std::uint8_t>(rep.state_digest >> (8 * b)));
    }

    result.committed_writes += rep.committed_writes;
    result.totals.add(s.stack.outcome);

    if (metrics != nullptr) {
      ControllerStats stats;
      load_state_blob(stats, s.stack.controller);
      stats.publish(*metrics);
      metrics->histogram("fleet.writes_per_device").add(s.writes_done);
      metrics->histogram("fleet.crashes_per_device")
          .add(s.stack.outcome.crashes);
    }
    result.devices.push_back(rep);
  }
  result.fleet_digest = crc32(digest_bytes.data(), digest_bytes.size());

  if (metrics != nullptr) {
    metrics->counter("fleet.devices").add(state.devices.size());
    metrics->counter("fleet.committed_writes").add(result.committed_writes);
    result.totals.publish(*metrics, "fleet.");
  }
  return result;
}

}  // namespace twl
