#include "sim/degradation_sim.h"

#include <cassert>

#include "obs/json.h"
#include "obs/metrics.h"
#include "pcm/device.h"

namespace twl {

void DegradationResult::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("scheme", scheme);
  w.kv("first_failure_writes", first_failure_writes);
  w.kv("floor_writes", floor_writes);
  w.kv("reached_floor", reached_floor);
  w.key("curve");
  w.begin_array();
  for (const DegradationPoint& p : curve) {
    w.begin_object();
    w.kv("demand_writes", p.demand_writes);
    w.kv("dead_pages", static_cast<std::uint64_t>(p.dead_pages));
    w.end_object();
  }
  w.end_array();
  w.key("stats");
  stats.write_json(w);
  w.end_object();
}

DegradationSimulator::DegradationSimulator(const Config& config)
    : config_(config),
      endurance_(config.geometry.pages(), config.endurance, config.seed) {
  config_.validate();
}

DegradationResult DegradationSimulator::run(WearLeveler& wl,
                                            RequestSource& source,
                                            double alive_floor_frac,
                                            WriteCount max_demand,
                                            MetricsRegistry* metrics,
                                            EventTracer* tracer) const {
  assert(alive_floor_frac > 0.0 && alive_floor_frac < 1.0);
  PcmDevice device(endurance_, config_.fault, config_.seed);
  MemoryController controller(device, wl, config_, /*enable_timing=*/false);
  controller.attach_metrics(metrics);
  controller.attach_tracer(tracer);

  const auto total_pages = static_cast<std::uint32_t>(device.pages());
  const auto dead_limit = static_cast<std::uint32_t>(
      static_cast<double>(total_pages) * (1.0 - alive_floor_frac));

  DegradationResult result;
  result.scheme = wl.name();

  const std::uint64_t space = wl.logical_pages();
  auto count_dead = [&] {
    std::uint32_t dead = 0;
    for (std::uint32_t p = 0; p < total_pages; ++p) {
      if (device.worn_out(PhysicalPageAddr(p))) ++dead;
    }
    return dead;
  };

  WriteCount next_sample = 1;
  while (controller.stats().demand_writes < max_demand) {
    const LogicalPageAddr la(source.next_write().value() % space);
    controller.submit(MemoryRequest{Op::kWrite, la}, 0);

    const WriteCount demand = controller.stats().demand_writes;
    if (result.first_failure_writes == 0 && device.failed()) {
      result.first_failure_writes = *device.writes_at_first_failure();
    }
    if (demand >= next_sample) {
      next_sample = next_sample + next_sample / 4 + 1;  // ~Geometric.
      const std::uint32_t dead = count_dead();
      result.curve.push_back({demand, dead});
      if (dead >= dead_limit) {
        result.reached_floor = true;
        result.floor_writes = demand;
        break;
      }
    }
  }
  if (!result.reached_floor) {
    result.floor_writes = controller.stats().demand_writes;
  }
  result.stats = controller.stats();
  if (metrics != nullptr) {
    controller.publish_metrics(*metrics);
    metrics->counter("sim.degradation.runs").inc();
    metrics->gauge("sim.degradation.floor_writes")
        .set(static_cast<double>(result.floor_writes));
  }
  return result;
}

}  // namespace twl
