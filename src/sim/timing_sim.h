// Execution-time simulation (Figure 9).
//
// Replays a fixed number of requests through a scheme with the timing
// model enabled, using a closed loop with a bounded number of outstanding
// requests (the memory-level parallelism an 8-core out-of-order server
// sustains against its memory). Total cycles under a scheme divided by
// total cycles under NOWL on the *same* request stream gives the
// normalized execution time the paper reports: wear-leveling overhead
// appears as extra migration writes occupying banks and as engine latency
// on each request's critical path.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"
#include "pcm/endurance.h"
#include "sim/memory_controller.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace twl {

class EventTracer;
class MetricsRegistry;

/// Latency distribution of one request class.
struct LatencyStats {
  double mean = 0.0;
  Cycles p50 = 0;
  Cycles p95 = 0;
  Cycles p99 = 0;
  Cycles max = 0;
  std::uint64_t count = 0;
};

struct TimingResult {
  Cycles total_cycles = 0;
  WriteCount demand_writes = 0;
  WriteCount reads = 0;
  LatencyStats read_latency;
  LatencyStats write_latency;
  ControllerStats stats;
  std::string scheme;
  std::string workload;
};

class TimingSimulator {
 public:
  /// `mlp` = maximum outstanding requests (default 8: one per core).
  explicit TimingSimulator(const Config& config, std::uint32_t mlp = 8);

  /// Run exactly `num_requests` requests from `source`. Wear-out is
  /// ignored (performance runs are far shorter than the lifetime).
  /// Const: run state is local, so one simulator may serve concurrent
  /// SimRunner cells (each cell still needs its own RequestSource).
  /// `metrics`/`tracer` as in LifetimeSimulator::run; detached (the
  /// default) is bit-identical to the pre-observability simulator. With
  /// metrics attached, the controller additionally records live
  /// per-request response-latency histograms.
  TimingResult run(Scheme scheme, RequestSource& source,
                   std::uint64_t num_requests,
                   MetricsRegistry* metrics = nullptr,
                   EventTracer* tracer = nullptr) const;

  [[nodiscard]] const EnduranceMap& endurance() const { return endurance_; }

 private:
  Config config_;
  std::uint32_t mlp_;
  EnduranceMap endurance_;
};

}  // namespace twl
