// Fleet simulator: N independent journaled devices under chaos.
//
// Each fleet device is one JournaledStack (fleet/journaled_stack.h) — a
// Device backend over its own process-variation draw, a wear-leveling
// scheme, a MemoryController with an attached MetadataJournal, the
// persisted recovery artifacts and a seeded chaos schedule — driven day
// by day through a deterministic workload stream. Every chaos event runs
// the stack's crash protocol (recovery with snapshot fallback, the five
// invariants of sim/crash_sim.h, adoption of the recovered state); the
// fleet's part is to re-draw its workload stream for the reference.
//
// The simulator itself is stateless between calls: all mutable state
// lives in FleetState, whose devices are *cold* (serialized) blobs.
// advance() thaws a device, runs it, and freezes it back, so
// thaw(freeze(x)) == x is the identity that makes checkpoint/resume
// byte-exact — a resumed fleet continues the precise write, chaos and
// RNG streams of an uninterrupted run. Devices are independent SimRunner
// cells: --jobs N never changes results, only wall clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "fleet/chaos.h"
#include "fleet/journaled_stack.h"
#include "fleet/scenario.h"
#include "recovery/snapshot.h"

namespace twl {

class MetricsRegistry;
class SimRunner;

/// One device's frozen (serialized) simulation state. Everything a
/// resumed run needs: its position in the workload stream and its frozen
/// journaled stack (live metadata, persisted recovery artifacts, the
/// chaos cursor/RNG and the tallies).
struct DeviceState {
  std::uint64_t writes_done = 0;  ///< Committed workload stream elements.
  StackState stack;

  void save_state(SnapshotWriter& w) const {
    w.put_u64(writes_done);
    stack.save_state(w);
  }
  void load_state(SnapshotReader& r) {
    writes_done = r.get_u64();
    stack.load_state(r);
  }

  friend bool operator==(const DeviceState&, const DeviceState&) = default;
};

struct FleetState {
  std::uint32_t day = 0;
  std::vector<DeviceState> devices;

  friend bool operator==(const FleetState&, const FleetState&) = default;
};

/// Per-device summary in the final report.
struct DeviceReport {
  std::uint32_t device = 0;
  std::uint64_t committed_writes = 0;
  DeviceOutcome outcome;
  std::uint64_t journal_bytes = 0;  ///< Lifetime appended bytes.
  /// CRC-32 over the final scheme snapshot ++ device wear state: the
  /// byte-identity fingerprint the stop/resume and --jobs tests compare.
  std::uint32_t state_digest = 0;
};

struct FleetResult {
  std::string scenario;
  std::vector<DeviceReport> devices;
  std::uint64_t committed_writes = 0;  ///< Fleet total.
  DeviceOutcome totals;                ///< Summed over devices.
  std::uint32_t fleet_digest = 0;      ///< CRC-32 over device digests.
};

class FleetSimulator {
 public:
  /// Requires a chaos-compatible config: no fault model, no retirement
  /// (the recovery replay model of sim/crash_sim.h). Throws
  /// std::invalid_argument otherwise. Devices draw independent PV maps
  /// and scheme RNG streams from config.seed.
  FleetSimulator(const Config& config, const Scenario& scenario);

  /// Day-zero fleet: fresh devices, initial snapshots taken.
  [[nodiscard]] FleetState fresh_state() const;

  /// Runs every device from state.day to min(until_day, horizon_days) as
  /// parallel SimRunner cells (cell i writes only state.devices[i]).
  void advance(FleetState& state, std::uint32_t until_day,
               SimRunner& runner) const;

  /// Pure function of the cold state: per-device reports, aggregates and
  /// digests. With `metrics`, publishes per-device controller counters
  /// and fleet.* instruments into it (commutative merges only).
  [[nodiscard]] FleetResult finalize(const FleetState& state,
                                     MetricsRegistry* metrics = nullptr) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

 private:
  struct Live;

  std::uint64_t run_device(DeviceState& cold, std::uint32_t device,
                           std::uint32_t from_day,
                           std::uint32_t until_day) const;

  Config config_;
  Scenario scenario_;
};

}  // namespace twl
