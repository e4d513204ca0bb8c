#include "sim/fault_sim.h"

#include <stdexcept>

#include "obs/json.h"
#include "obs/metrics.h"
#include "pcm/device.h"

namespace twl {

WriteCount FaultSimResult::demand_writes_to_loss(double loss_frac) const {
  for (const CapacityLossPoint& p : curve) {
    if (p.loss_fraction >= loss_frac) return p.demand_writes;
  }
  return 0;
}

void FaultSimResult::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("scheme", scheme);
  w.kv("workload", workload);
  w.kv("first_failure_writes", first_failure_writes);
  w.kv("fatal_writes", fatal_writes);
  w.kv("fatal", fatal);
  w.kv("demand_writes", demand_writes);
  w.kv("pages_retired", static_cast<std::uint64_t>(pages_retired));
  w.kv("spares_left", static_cast<std::uint64_t>(spares_left));
  w.kv("total_stuck_faults", total_stuck_faults);
  w.kv("ecp_corrected_faults", ecp_corrected_faults);
  w.kv("first_failure_fraction_of_ideal", first_failure_fraction_of_ideal);
  w.key("curve");
  w.begin_array();
  for (const CapacityLossPoint& p : curve) {
    w.begin_object();
    w.kv("demand_writes", p.demand_writes);
    w.kv("retired_pages", static_cast<std::uint64_t>(p.retired_pages));
    w.kv("loss_fraction", p.loss_fraction);
    w.end_object();
  }
  w.end_array();
  w.key("wear");
  wear.write_json(w);
  w.key("stats");
  stats.write_json(w);
  w.end_object();
}

FaultSimulator::FaultSimulator(const Config& config)
    : config_(config),
      endurance_(config.geometry.pages(), config.endurance, config.seed) {
  config_.validate();
  if (!config_.fault.enabled()) {
    throw std::invalid_argument(
        "FaultSimulator requires fault tolerance (fault.ecp_k or "
        "fault.spare_pages); use LifetimeSimulator for the paper's "
        "first-failure model");
  }
}

FaultSimResult FaultSimulator::run(Scheme scheme, RequestSource& source,
                                   WriteCount max_demand,
                                   MetricsRegistry* metrics,
                                   EventTracer* tracer) const {
  PcmDevice device(endurance_, config_.fault, config_.seed);
  const auto wl = make_wear_leveler(scheme, endurance_, config_);
  MemoryController controller(device, *wl, config_, /*enable_timing=*/false);
  controller.attach_metrics(metrics);
  controller.attach_tracer(tracer);

  const double pool = controller.retirement_active()
                          ? static_cast<double>(controller.retirement().pool_pages())
                          : static_cast<double>(device.pages());

  FaultSimResult result;
  result.scheme = wl->name();
  result.workload = source.name();

  const std::uint64_t space = wl->logical_pages();
  std::uint32_t seen_retired = 0;
  while (!controller.device_failed() &&
         controller.stats().demand_writes < max_demand) {
    // Reads cause no wear.
    const LogicalPageAddr la(source.next_write().value() % space);
    controller.submit(MemoryRequest{Op::kWrite, la}, 0);

    if (result.first_failure_writes == 0 && device.failed()) {
      result.first_failure_writes = controller.stats().demand_writes;
    }
    const std::uint32_t retired = controller.stats().pages_retired;
    if (retired != seen_retired) {
      seen_retired = retired;
      result.curve.push_back({controller.stats().demand_writes, retired,
                              static_cast<double>(retired) / pool});
    }
  }

  result.fatal = controller.device_failed();
  if (result.fatal) {
    result.fatal_writes = controller.stats().demand_writes;
  }
  result.demand_writes = controller.stats().demand_writes;
  result.pages_retired = controller.stats().pages_retired;
  result.spares_left = controller.retirement_active()
                           ? controller.retirement().spares_left()
                           : 0;
  if (device.has_fault_model()) {
    result.total_stuck_faults = device.fault_model().total_faults();
    result.ecp_corrected_faults = device.fault_model().corrected_faults();
  }
  result.first_failure_fraction_of_ideal =
      static_cast<double>(result.first_failure_writes) /
      static_cast<double>(endurance_.total_endurance());
  result.wear = summarize_wear(device);
  result.stats = controller.stats();
  if (metrics != nullptr) {
    controller.publish_metrics(*metrics);
    metrics->counter("sim.fault.runs").inc();
    metrics->gauge("sim.fault.first_failure_fraction_of_ideal")
        .set(result.first_failure_fraction_of_ideal);
  }
  return result;
}

}  // namespace twl
