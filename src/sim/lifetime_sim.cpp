#include "sim/lifetime_sim.h"

#include "device/factory.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"

namespace twl {
namespace {

/// Writes from `source` until the first failure or `max_demand`.
/// Flattened, so that with a typed controller (sim/dispatch.h) the write
/// path below the source is inlined into this one body (DESIGN.md §12).
template <class Controller>
[[gnu::flatten]] void lifetime_loop(Controller& controller,
                                    RequestSource& source,
                                    std::uint64_t space,
                                    WriteCount max_demand) {
  while (!controller.device_failed() &&
         controller.stats().demand_writes < max_demand) {
    // Reads cause no wear.
    const LogicalPageAddr la(source.next_write().value() % space);
    controller.submit(MemoryRequest{Op::kWrite, la}, 0);
  }
}

}  // namespace

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
  const auto device = make_device(endurance_, config_);
  const auto wl = make_wear_leveler(scheme, endurance_, config_);
  return run_on(*device, *wl, source, max_demand, metrics, tracer);
}

LifetimeResult LifetimeSimulator::run_on(Device& device, WearLeveler& wl,
                                         RequestSource& source,
                                         WriteCount max_demand,
                                         MetricsRegistry* metrics,
                                         EventTracer* tracer) const {
  LifetimeResult result;
  with_controller(
      device, wl, config_, /*enable_timing=*/false, [&](auto& controller) {
        controller.attach_metrics(metrics);
        controller.attach_tracer(tracer);
        lifetime_loop(controller, source, wl.logical_pages(), max_demand);
        result.failed = controller.device_failed();
        result.stats = controller.stats();
        if (metrics != nullptr) controller.publish_metrics(*metrics);
      });
  result.demand_writes = result.stats.demand_writes;
  result.physical_writes = result.stats.physical_writes();
  result.fraction_of_ideal =
      static_cast<double>(result.demand_writes) /
      static_cast<double>(endurance_.total_endurance());
  result.wear = summarize_wear(device);
  result.scheme = wl.name();
  result.workload = source.name();
  if (metrics != nullptr) {
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
