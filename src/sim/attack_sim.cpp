#include "sim/attack_sim.h"

#include "device/factory.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"

namespace twl {
namespace {

/// The closed loop; returns its end time. Flattened, so that with a
/// typed controller and attacker (sim/dispatch.h) the write path is
/// inlined into this one body (DESIGN.md §12).
template <class Controller, class Attack>
[[gnu::flatten]] Cycles attack_loop(Controller& controller, Attack& attack,
                                    std::uint64_t space,
                                    WriteCount max_demand) {
  Cycles now = 0;
  Cycles last_latency = 0;
  while (!controller.device_failed() &&
         controller.stats().demand_writes < max_demand) {
    MemoryRequest req = attack.next(last_latency);
    req.addr = LogicalPageAddr(req.addr.value() % space);
    last_latency = controller.submit(req, now);
    now += last_latency;  // Back-to-back issue, as fast as the memory allows.
  }
  return now;
}

}  // namespace

AttackSimulator::AttackSimulator(const Config& config)
    : config_(config),
      endurance_(config.geometry.pages(), config.endurance, config.seed) {
  config_.validate();
}

AttackResult AttackSimulator::run(Scheme scheme, AttackProgram& attack,
                                  WriteCount max_demand,
                                  MetricsRegistry* metrics,
                                  EventTracer* tracer) const {
  const auto device = make_device(endurance_, config_);
  const auto wl = make_wear_leveler(scheme, endurance_, config_);
  return run_on(*device, *wl, attack, max_demand, metrics, tracer);
}

AttackResult AttackSimulator::run_on(Device& device, WearLeveler& wl,
                                     AttackProgram& attack,
                                     WriteCount max_demand,
                                     MetricsRegistry* metrics,
                                     EventTracer* tracer) const {
  AttackResult result;
  with_controller(
      device, wl, config_, /*enable_timing=*/true, [&](auto& controller) {
        controller.attach_metrics(metrics);
        controller.attach_tracer(tracer);
        result.end_time = with_attack(attack, [&](auto& program) {
          return attack_loop(controller, program, wl.logical_pages(),
                             max_demand);
        });
        result.failed = controller.device_failed();
        result.stats = controller.stats();
        if (metrics != nullptr) controller.publish_metrics(*metrics);
      });
  result.demand_writes = result.stats.demand_writes;
  result.fraction_of_ideal =
      static_cast<double>(result.demand_writes) /
      static_cast<double>(endurance_.total_endurance());
  result.scheme = wl.name();
  result.attack = attack.name();
  if (metrics != nullptr) {
    metrics->counter("sim.attack.runs").inc();
    metrics->gauge("sim.attack.fraction_of_ideal")
        .set(result.fraction_of_ideal);
    metrics->gauge("sim.attack.end_time_cycles")
        .set(static_cast<double>(result.end_time));
  }
  return result;
}

}  // namespace twl
