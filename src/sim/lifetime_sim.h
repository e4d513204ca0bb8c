// Whole-lifetime simulation.
//
// Drives a workload through a scheme + device (timing disabled) until the
// first page fails, and reports the lifetime as a *fraction of ideal*:
// demand writes absorbed before first failure divided by the device's
// total endurance. That fraction is the scale-invariant quantity behind
// Figures 6 and 8 (years = fraction x the ideal lifetime of the real
// system; see analysis/extrapolate.h).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/wear_report.h"
#include "common/config.h"
#include "pcm/endurance.h"
#include "sim/memory_controller.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace twl {

class EventTracer;
class JsonWriter;
class MetricsRegistry;

struct LifetimeResult {
  bool failed = false;  ///< False if the write cap was reached first.
  WriteCount demand_writes = 0;
  WriteCount physical_writes = 0;
  double fraction_of_ideal = 0.0;
  WearSummary wear;  ///< Device wear distribution at end of run.
  ControllerStats stats;
  std::string scheme;
  std::string workload;

  /// One JSON object (scheme, workload, counters, wear summary).
  void write_json(JsonWriter& w) const;
};

class LifetimeSimulator {
 public:
  /// The endurance map is drawn once from config and reused for every
  /// run(), so schemes compete on the *same* device sample.
  explicit LifetimeSimulator(const Config& config);

  /// Run `scheme` against `source` until first failure or `max_demand`
  /// demand writes. Addresses are folded into the scheme's logical space.
  /// Const — all run state (device, scheme, controller) is built locally,
  /// so one simulator may serve concurrent SimRunner cells (each cell
  /// still needs its own RequestSource).
  ///
  /// `metrics` (optional) receives the controller's end-of-run export
  /// (ControllerStats counters, scheme gauges) plus "sim.*" summary
  /// values; `tracer` (optional) records typed events in TWL_TRACING
  /// builds. Both default to detached, which is bit-identical to the
  /// pre-observability simulator.
  LifetimeResult run(Scheme scheme, RequestSource& source,
                     WriteCount max_demand,
                     MetricsRegistry* metrics = nullptr,
                     EventTracer* tracer = nullptr) const;

  /// run() on a device and scheme the caller built, fresh, over
  /// endurance() and config(), as run() builds them with make_device and
  /// make_wear_leveler. Both are left in their end-of-run state.
  LifetimeResult run_on(Device& device, WearLeveler& wl,
                        RequestSource& source, WriteCount max_demand,
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
