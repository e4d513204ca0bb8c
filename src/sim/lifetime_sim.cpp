#include "sim/lifetime_sim.h"

#include "device/factory.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace twl {

void LifetimeResult::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("scheme", scheme);
  w.kv("workload", workload);
  w.kv("failed", failed);
  w.kv("demand_writes", demand_writes);
  w.kv("physical_writes", physical_writes);
  w.kv("fraction_of_ideal", fraction_of_ideal);
  w.key("wear");
  wear.write_json(w);
  w.key("stats");
  stats.write_json(w);
  w.end_object();
}

LifetimeSimulator::LifetimeSimulator(const Config& config)
    : config_(config),
      endurance_(config.geometry.pages(), config.endurance, config.seed) {
  config_.validate();
}

LifetimeResult LifetimeSimulator::run(Scheme scheme, RequestSource& source,
                                      WriteCount max_demand,
                                      MetricsRegistry* metrics,
                                      EventTracer* tracer) const {
  const auto device_ptr = make_device(endurance_, config_);
  Device& device = *device_ptr;
  const auto wl = make_wear_leveler(scheme, endurance_, config_);
  MemoryController controller(device, *wl, config_, /*enable_timing=*/false);
  controller.attach_metrics(metrics);
  controller.attach_tracer(tracer);

  const std::uint64_t space = wl->logical_pages();
  while (!controller.device_failed() &&
         controller.stats().demand_writes < max_demand) {
    // Reads cause no wear.
    const LogicalPageAddr la(source.next_write().value() % space);
    controller.submit(MemoryRequest{Op::kWrite, la}, 0);
  }

  LifetimeResult result;
  result.failed = controller.device_failed();
  result.demand_writes = controller.stats().demand_writes;
  result.physical_writes = controller.stats().physical_writes();
  result.fraction_of_ideal =
      static_cast<double>(result.demand_writes) /
      static_cast<double>(endurance_.total_endurance());
  result.wear = summarize_wear(device);
  result.stats = controller.stats();
  result.scheme = wl->name();
  result.workload = source.name();
  if (metrics != nullptr) {
    controller.publish_metrics(*metrics);
    metrics->counter("sim.lifetime.runs").inc();
    metrics->gauge("sim.lifetime.fraction_of_ideal")
        .set(result.fraction_of_ideal);
    LogHistogram& wear_hist = metrics->histogram("device.page_writes");
    for (std::uint64_t p = 0; p < device.pages(); ++p) {
      wear_hist.add(device.writes(PhysicalPageAddr(
          static_cast<std::uint32_t>(p))));
    }
  }
  return result;
}

}  // namespace twl
