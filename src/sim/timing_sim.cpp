#include "sim/timing_sim.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "device/factory.h"
#include "obs/metrics.h"

namespace twl {

namespace {
/// CPU work separating consecutive request issues from one core's stream.
constexpr Cycles kIssueGap = 20;

LatencyStats summarize_latencies(std::vector<Cycles>& samples) {
  LatencyStats s;
  s.count = samples.size();
  if (samples.empty()) return s;
  double sum = 0;
  for (const Cycles c : samples) sum += static_cast<double>(c);
  s.mean = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    return samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1))];
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.max = samples.back();
  return s;
}
}  // namespace

TimingSimulator::TimingSimulator(const Config& config, std::uint32_t mlp)
    : config_(config),
      mlp_(std::max<std::uint32_t>(1, mlp)),
      endurance_(config.geometry.pages(), config.endurance, config.seed) {
  config_.validate();
}

TimingResult TimingSimulator::run(Scheme scheme, RequestSource& source,
                                  std::uint64_t num_requests,
                                  MetricsRegistry* metrics,
                                  EventTracer* tracer) const {
  const auto device_ptr = make_device(endurance_, config_);
  Device& device = *device_ptr;
  const auto wl = make_wear_leveler(scheme, endurance_, config_);
  MemoryController controller(device, *wl, config_, /*enable_timing=*/true);
  controller.attach_metrics(metrics);
  controller.attach_tracer(tracer);

  std::priority_queue<Cycles, std::vector<Cycles>, std::greater<>>
      outstanding;
  const std::uint64_t space = wl->logical_pages();
  Cycles now = 0;
  Cycles last_completion = 0;
  std::vector<Cycles> read_samples;
  std::vector<Cycles> write_samples;
  read_samples.reserve(num_requests / 2);
  write_samples.reserve(num_requests / 2);

  for (std::uint64_t i = 0; i < num_requests; ++i) {
    if (outstanding.size() >= mlp_) {
      now = std::max(now, outstanding.top());
      outstanding.pop();
    }
    MemoryRequest req = source.next();
    req.addr = LogicalPageAddr(req.addr.value() % space);
    const Cycles latency = controller.submit(req, now);
    (req.op == Op::kRead ? read_samples : write_samples)
        .push_back(latency);
    const Cycles completion = now + latency;
    outstanding.push(completion);
    last_completion = std::max(last_completion, completion);
    now += kIssueGap;
  }

  TimingResult result;
  result.total_cycles = last_completion;
  result.read_latency = summarize_latencies(read_samples);
  result.write_latency = summarize_latencies(write_samples);
  result.demand_writes = controller.stats().demand_writes;
  result.reads = controller.stats().reads;
  result.stats = controller.stats();
  result.scheme = wl->name();
  result.workload = source.name();
  if (metrics != nullptr) {
    controller.publish_metrics(*metrics);
    metrics->counter("sim.timing.runs").inc();
    metrics->gauge("sim.timing.total_cycles")
        .set(static_cast<double>(result.total_cycles));
  }
  return result;
}

}  // namespace twl
