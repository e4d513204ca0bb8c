// Graceful-degradation simulation (OD3P experiment).
//
// The paper's evaluation stops at the first page failure; the OD3P layer
// it cites ([1]) argues the device should instead degrade gracefully.
// This simulator drives a workload *past* failures and records the
// capacity curve: how many pages have died after how many demand writes,
// until the alive fraction reaches a floor (or a write cap).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "pcm/endurance.h"
#include "sim/memory_controller.h"
#include "trace/synthetic.h"
#include "wl/wear_leveler.h"

namespace twl {

class EventTracer;
class MetricsRegistry;

struct DegradationPoint {
  WriteCount demand_writes = 0;
  std::uint32_t dead_pages = 0;
};

struct DegradationResult {
  /// Demand writes absorbed when the first page died (the paper's
  /// lifetime event).
  WriteCount first_failure_writes = 0;
  /// Demand writes absorbed when the alive fraction crossed the floor.
  WriteCount floor_writes = 0;
  bool reached_floor = false;
  std::vector<DegradationPoint> curve;
  ControllerStats stats;
  std::string scheme;
};

class DegradationSimulator {
 public:
  explicit DegradationSimulator(const Config& config);

  /// Drive `wl` (typically an Od3pWrapper) until fewer than
  /// `alive_floor_frac` of the pages survive. `curve_points` samples are
  /// spread geometrically over the run.
  /// Const: run state is local, so one simulator may serve concurrent
  /// SimRunner cells (each cell still needs its own WearLeveler/source).
  /// `metrics`/`tracer` as in LifetimeSimulator::run; detached (the
  /// default) is bit-identical to the pre-observability simulator.
  DegradationResult run(WearLeveler& wl, RequestSource& source,
                        double alive_floor_frac, WriteCount max_demand,
                        MetricsRegistry* metrics = nullptr,
                        EventTracer* tracer = nullptr) const;

  [[nodiscard]] const EnduranceMap& endurance() const { return endurance_; }

 private:
  Config config_;
  EnduranceMap endurance_;
};

}  // namespace twl
