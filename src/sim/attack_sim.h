// Attack simulation.
//
// Closed-loop adversary: the attack program issues its next request as
// soon as the previous one completes, observing each response latency —
// the timing side channel that lets it detect swap phases. The run ends
// when a page wears out (or at the write cap), mirroring Figure 6's
// "lifetime under attacks" experiment.
#pragma once

#include <cstdint>
#include <string>

#include "attack/attacks.h"
#include "common/config.h"
#include "pcm/endurance.h"
#include "sim/memory_controller.h"
#include "wl/factory.h"

namespace twl {

class EventTracer;
class JsonWriter;
class MetricsRegistry;

struct AttackResult {
  bool failed = false;
  WriteCount demand_writes = 0;
  double fraction_of_ideal = 0.0;
  Cycles end_time = 0;
  ControllerStats stats;
  std::string scheme;
  std::string attack;

  /// One JSON object with every field.
  void write_json(JsonWriter& w) const;
};

class AttackSimulator {
 public:
  explicit AttackSimulator(const Config& config);

  /// Const: run state is local, so one simulator may serve concurrent
  /// SimRunner cells (each cell still needs its own AttackProgram).
  /// `metrics`/`tracer` as in LifetimeSimulator::run; detached (the
  /// default) is bit-identical to the pre-observability simulator.
  AttackResult run(Scheme scheme, AttackProgram& attack,
                   WriteCount max_demand, MetricsRegistry* metrics = nullptr,
                   EventTracer* tracer = nullptr) const;

  /// run() on a device and scheme the caller built, fresh, over
  /// endurance() and the config this simulator was given, as run() builds
  /// them with make_device and make_wear_leveler. Both are left in their
  /// end-of-run state, so the caller can read the device's wear.
  AttackResult run_on(Device& device, WearLeveler& wl, AttackProgram& attack,
                      WriteCount max_demand,
                      MetricsRegistry* metrics = nullptr,
                      EventTracer* tracer = nullptr) const;

  [[nodiscard]] const EnduranceMap& endurance() const { return endurance_; }

 private:
  Config config_;
  EnduranceMap endurance_;
};

}  // namespace twl
