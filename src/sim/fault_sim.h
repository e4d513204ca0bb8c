// Graceful-degradation lifetime simulation under the stuck-at fault model.
//
// Where LifetimeSimulator measures the paper's event — demand writes until
// the first page death — this simulator runs a fault-tolerant device
// (ECP-k correction + spare-pool retirement, see pcm/fault_model.h and
// pcm/retirement.h) *past* page deaths and records the capacity-loss
// curve: after how many demand writes had 1%, 5%, 10%... of the pool been
// retired onto spares. The run ends when a page dies with the spare pool
// exhausted (the device's true end of life) or at the write cap. This
// turns every lifetime experiment into a robustness experiment: how much
// longer does each scheme keep a degrading device serviceable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/wear_report.h"
#include "common/config.h"
#include "pcm/endurance.h"
#include "sim/memory_controller.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace twl {

class EventTracer;
class MetricsRegistry;

/// One page retirement on the capacity-loss curve.
struct CapacityLossPoint {
  WriteCount demand_writes = 0;
  std::uint32_t retired_pages = 0;
  /// retired_pages / pool size (the scheme-visible capacity).
  double loss_fraction = 0.0;
};

struct FaultSimResult {
  /// Demand writes absorbed when the first page became uncorrectable (the
  /// paper's lifetime event; the page was then retired, not fatal).
  WriteCount first_failure_writes = 0;
  /// Demand writes absorbed when a page died with no spare left. 0 if the
  /// run ended at the write cap instead.
  WriteCount fatal_writes = 0;
  bool fatal = false;
  WriteCount demand_writes = 0;
  std::vector<CapacityLossPoint> curve;  ///< One point per retirement.
  std::uint32_t pages_retired = 0;
  std::uint32_t spares_left = 0;
  std::uint64_t total_stuck_faults = 0;
  std::uint64_t ecp_corrected_faults = 0;
  double first_failure_fraction_of_ideal = 0.0;
  WearSummary wear;
  ControllerStats stats;
  std::string scheme;
  std::string workload;

  /// Demand writes absorbed when the retired fraction of the pool first
  /// reached `loss_frac` (e.g. 0.05 for 5% capacity loss). 0 if the run
  /// never lost that much capacity.
  [[nodiscard]] WriteCount demand_writes_to_loss(double loss_frac) const;
};

class FaultSimulator {
 public:
  /// Requires a fault-tolerant config (`config.fault.enabled()`); throws
  /// std::invalid_argument otherwise. The endurance map is drawn once and
  /// reused for every run(), so schemes compete on the same device sample.
  explicit FaultSimulator(const Config& config);

  /// Run `scheme` until the spare pool is exhausted and one more page
  /// dies, or until `max_demand` demand writes.
  /// Const: run state is local, so one simulator may serve concurrent
  /// SimRunner cells (each cell still needs its own RequestSource).
  /// `metrics`/`tracer` as in LifetimeSimulator::run; detached (the
  /// default) is bit-identical to the pre-observability simulator.
  FaultSimResult run(Scheme scheme, RequestSource& source,
                     WriteCount max_demand,
                     MetricsRegistry* metrics = nullptr,
                     EventTracer* tracer = nullptr) const;

  [[nodiscard]] const EnduranceMap& endurance() const { return endurance_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Demand writes needed to consume the whole device at 100% efficiency.
  [[nodiscard]] WriteCount ideal_demand_writes() const {
    return endurance_.total_endurance();
  }

 private:
  Config config_;
  EnduranceMap endurance_;
};

}  // namespace twl
