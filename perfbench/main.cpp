// perfbench: the repository benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans-dir D]
//
// Repeats set-up + one untraced pass of workload W until S seconds have
// passed (at least kMinPasses passes), reports the host-time metrics and
// the exact simulated metrics of the pass (which every pass must
// reproduce), then runs the correctness checks. With --trace 1 it
// adds one traced pass and prints the per-layer metrics instead of the
// end-to-end ones; the spans go to D/<workload>-<seed>.tsv. The last
// stdout line is the JSON result; the exit code is 1 if any check
// failed.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::Checks;
using perfbench::LayerMetrics;
using perfbench::PassResult;

constexpr int kMinPasses = 3;
// Set-up time is the median of kSetupSamplesPerPass samples after every
// pass, each the mean CPU time of as many set-ups as fill
// kSetupSampleNs: one service set-up takes a few microseconds, too short
// to time alone.
// Spread over the run, the samples find the heap as different passes
// left it and the host at different moments.
constexpr int kSetupSamplesPerPass = 5;
constexpr double kSetupSampleNs = 2e6;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json lists these same names and units.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"writes_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"accepted_ratio", "ratio"},
    {"lifetime_frac", "ratio"},
    {"victim_lifetime_frac", "ratio"},
    {"swap_ratio", "ratio"},
    {"sim_write_cycles", "cycles"},
    {"sim_p50_cycles", "cycles"},
    {"sim_p99_cycles", "cycles"},
    {"journal_bytes_per_write", "B"},
};

constexpr MetricSpec kPerLayer[] = {
    {"trace.ns_per_write", "ns"},
    {"trace.requests_per_write", "count"},
    {"trace.setup_s", "s"},
    {"trace.share_pct", "%"},
    {"attack.ns_per_write", "ns"},
    {"attack.phase_flips", "count"},
    {"attack.share_pct", "%"},
    {"wl.ns_per_write", "ns"},
    {"wl.tossup_writes", "count"},
    {"wl.interpair_writes", "count"},
    {"wl.setup_s", "s"},
    {"wl.share_pct", "%"},
    {"device.ns_per_write", "ns"},
    {"device.physical_writes", "count"},
    {"endurance.setup_s", "s"},
    {"device.share_pct", "%"},
    {"timing.ns_per_write", "ns"},
    {"timing.blocking_events", "count"},
    {"timing.share_pct", "%"},
    {"controller.ns_per_write", "ns"},
    {"controller.share_pct", "%"},
    {"journal.ns_per_write", "ns"},
    {"journal.records_per_write", "count"},
    {"journal.share_pct", "%"},
    {"snapshot.ns_per_write", "ns"},
    {"snapshot.rotations", "count"},
    {"snapshot.share_pct", "%"},
    {"recovery.ms_per_crash", "ms"},
    {"recovery.replayed_writes", "count"},
    {"recovery.invariant_failures", "count"},
    {"recovery.share_pct", "%"},
    {"fleet.stream_ns_per_req", "ns"},
    {"chaos.events", "count"},
    {"fleet.share_pct", "%"},
    {"shard.ns_per_write", "ns"},
    {"shard.share_pct", "%"},
    {"engine.ns_per_req", "ns"},
    {"engine.share_pct", "%"},
    {"service.shed", "count"},
    {"service.quota_shed", "count"},
    {"service.timed_out", "count"},
    {"service.retries", "count"},
    {"service.peak_queue_depth", "count"},
    {"tenant.min_accept_ratio", "ratio"},
    {"obs.ns_per_hist_add", "ns"},
    {"obs.share_pct", "%"},
    {"tracing.overhead_pct", "%"},
    {"tracing.unattributed_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 20170618;
  double seconds = 0;
  bool trace = false;
  std::string spans_dir;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{lifetime,attack,service,tenants} --seconds S [--seed N] "
               "[--trace 0|1] [--spans-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || errno != 0 || *end != '\0') {
    usage_error("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) usage_error("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--spans-dir") {
      o.spans_dir = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (o.seconds < 1) usage_error("--seconds is required (at least 1)");
  return o;
}

std::unique_ptr<perfbench::Workload> make(const Options& o) {
  if (o.workload == "lifetime") return perfbench::make_lifetime(o.seed);
  if (o.workload == "attack") return perfbench::make_attack(o.seed);
  if (o.workload == "service") return perfbench::make_service(o.seed);
  if (o.workload == "tenants") return perfbench::make_tenants(o.seed);
  usage_error("unknown workload '" + o.workload + "'");
}

/// The q-quantile of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of `v` without its lowest and highest tenth: one call or probe
/// that an interrupt storm slowed cannot move it far.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Peak resident memory of this process image. getrusage's ru_maxrss
/// would not do: Linux carries it over execve, so it starts at the peak
/// of whatever process launched the benchmark (run.py's Python is larger
/// than lifetime's whole run). VmHWM belongs to the process's own memory
/// map, which execve replaces.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_result(bool correct, const PassResult& pass,
                  const std::vector<std::pair<const MetricSpec*, double>>&
                      metrics) {
  for (const auto& [spec, value] : metrics) {
    std::printf("%-28s %20.6f %s\n", spec->name, value, spec->unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", pass.attempted, pass.failed);
  bool first = true;
  for (const auto& [spec, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", spec->name, value, spec->unit);
    first = false;
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  Checks checks;
  std::vector<double> pass_ns;
  std::vector<double> writes_per_s;
  PassResult first;
  // Peak memory of the first pass in a fresh process: later passes run on
  // a heap the allocator has already grown and trimmed in its own way.
  double rss_mb = 0;

  perfbench::HostProbe probe;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_parts;
  int batch = 1;
  const auto sample_setups = [&](int samples) {
    probe.sample();
    for (int i = 0; i < samples; ++i) {
      double ns = 0;
      LayerMetrics parts;
      for (int k = 0; k < batch; ++k) {
        auto w = make(opt);
        const std::int64_t t0 = perfbench::cpu_ns();
        w->setup(parts);
        ns += static_cast<double>(perfbench::cpu_ns() - t0);
      }
      setup_s.push_back(ns * 1e-9 / batch);
      for (const auto& [name, v] : parts) {
        setup_parts[name].push_back(v / batch);
      }
    }
  };

  const std::int64_t start = perfbench::now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (int pass = 0; pass < kMinPasses || perfbench::now_ns() < deadline;
       ++pass) {
    auto w = make(opt);
    LayerMetrics ignored;
    w->setup(ignored);
    const std::int64_t t0 = perfbench::now_ns();
    const PassResult r = w->run(checks, probe);
    pass_ns.push_back(static_cast<double>(perfbench::now_ns() - t0));
    writes_per_s.insert(writes_per_s.end(), r.rates.begin(), r.rates.end());
    if (pass == 0) {
      first = r;
      rss_mb = peak_rss_mb();
      // Sizes the batches from the fastest of three warm-up set-ups.
      sample_setups(3);
      const double fastest =
          *std::min_element(setup_s.begin(), setup_s.end()) * 1e9;
      batch = static_cast<int>(std::clamp(
          kSetupSampleNs / std::max(fastest, 1.0), 1.0, 10000.0));
      setup_s.clear();
      setup_parts.clear();
    } else {
      checks.require(r.exact == first.exact && r.writes == first.writes,
                     "exact metrics repeat across passes");
    }
    sample_setups(kSetupSamplesPerPass);
  }
  // Host-time metrics are reported at reference host speed: the run's
  // CPU-clock value scaled by the mean speed of the probes that
  // interleave with its calls and set-up bursts (host_speed.h). The host
  // switches between a contended and a fast state from second to second,
  // and the run's share of fast time moves both means alike, where a
  // median would jump from one state to the other at a share of 50%.
  const double speed = trimmed_mean(probe.speeds());
  std::fprintf(stderr,
               "perfbench: %s seed %" PRIu64 ": %zu passes, %zu writes/s "
               "samples (CPU clock: min %.4g mean %.4g max %.4g), "
               "%zu x %d set-ups, %zu probes (host speed: min %.3f mean "
               "%.3f max %.3f)\n",
               opt.workload.c_str(), opt.seed, pass_ns.size(),
               writes_per_s.size(), quantile(writes_per_s, 0),
               trimmed_mean(writes_per_s), quantile(writes_per_s, 1),
               setup_s.size(), batch, probe.speeds().size(),
               quantile(probe.speeds(), 0), speed,
               quantile(probe.speeds(), 1));
  std::fprintf(stderr, "perfbench: writes/s per call:");
  for (const double r : writes_per_s) std::fprintf(stderr, " %.4g", r);
  std::fprintf(stderr, "\nperfbench: host speed per probe:");
  for (const double v : probe.speeds()) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "\n");

  {
    auto w = make(opt);
    LayerMetrics ignored;
    w->setup(ignored);
    w->check(first, checks);
  }

  std::vector<std::pair<const MetricSpec*, double>> out;
  if (!opt.trace) {
    const perfbench::Exact& e = first.exact;
    const double values[] = {median(setup_s) * speed,
                             trimmed_mean(writes_per_s) / speed,
                             rss_mb,
                             e.accepted_ratio,
                             e.lifetime_frac,
                             e.victim_lifetime_frac,
                             e.swap_ratio,
                             e.sim_write_cycles,
                             e.sim_p50_cycles,
                             e.sim_p99_cycles,
                             e.journal_bytes_per_write};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    auto w = make(opt);
    LayerMetrics ignored;
    w->setup(ignored);
    perfbench::SpanRecorder rec;
    LayerMetrics layers;
    const PassResult traced =
        w->run_traced(rec, median(pass_ns), layers, checks);
    checks.require(traced.exact == first.exact &&
                       traced.writes == first.writes,
                   "traced exact metrics equal the untraced ones");
    checks.require(rec.balanced(), "every span closed");
    for (const auto& [name, samples] : setup_parts) {
      layers[name] = median(samples) * speed;
    }
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layers.find(spec.name);
      out.emplace_back(&spec, it == layers.end() ? 0.0 : it->second);
      if (it != layers.end()) layers.erase(it);
    }
    for (const auto& [name, v] : layers) {
      std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                   name.c_str());
    }
    checks.require(layers.empty(), "every layer metric is listed");
    if (!opt.spans_dir.empty()) {
      const std::string path = opt.spans_dir + "/" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".tsv";
      std::ofstream f(path);
      rec.write_tsv(f);
      checks.require(static_cast<bool>(f), "spans written to " + path);
    }
  }

  for (const std::string& what : checks.failed()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  const bool correct = checks.failed().empty();
  print_result(correct, first, out);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // A fixed threshold turns off glibc's sliding one, which rises each
  // time a large block is freed: how much of the service's arrival
  // vectors then stayed resident depended on the order the seed's routing
  // grew them in, and peak_rss_mb moved 17% between seeds (4% fixed).
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
