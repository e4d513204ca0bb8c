// The benchmark's four workloads (see README.md for why each exists).
//
// A Workload is built fresh for every repetition: setup() does all the
// work before the first simulated write (timed as setup_s), run() makes
// one untraced pass through the program's public entry point, check()
// re-runs what the entry point hides behind its return value, and
// run_traced() rebuilds the pass with spans around the calls into each
// module and fills the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host_speed.h"
#include "spans.h"

namespace perfbench {

/// Value of an end-to-end metric on a workload that does not exercise
/// it (the result format lists every metric for every workload, and
/// forbids 0). README.md lists which metric applies where.
inline constexpr double kNotApplicable = 1.0;

/// The simulated results of one pass: a pure function of the seed, so
/// every pass at one seed, traced or not, must reproduce them bit for
/// bit.
struct Exact {
  double accepted_ratio = kNotApplicable;
  double lifetime_frac = kNotApplicable;
  double victim_lifetime_frac = kNotApplicable;
  double swap_ratio = kNotApplicable;
  double sim_write_cycles = kNotApplicable;
  double sim_p50_cycles = kNotApplicable;
  double sim_p99_cycles = kNotApplicable;
  double journal_bytes_per_write = kNotApplicable;

  friend bool operator==(const Exact&, const Exact&) = default;
};

struct PassResult {
  Exact exact;
  /// Demand writes per CPU second of each entry-point call in the pass
  /// (one per trial or engine run): the samples of writes_per_s.
  std::vector<double> rates;
  std::uint64_t writes = 0;     ///< Demand (accepted) writes.
  std::uint64_t attempted = 0;  ///< Writes or requests submitted.
  std::uint64_t failed = 0;     ///< Requests shed, quota-shed or timed out.
};

/// Named correctness checks; any failure fails the benchmark.
class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok) failed_.push_back(what);
  }
  [[nodiscard]] const std::vector<std::string>& failed() const {
    return failed_;
  }

 private:
  std::vector<std::string> failed_;
};

/// Per-layer metrics by name (the traced run's output).
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first write. Per-component set-up times go
  /// into `setup_parts` (e.g. "trace.setup_s").
  virtual void setup(LayerMetrics& setup_parts) = 0;
  /// One untraced pass through the public entry point, each call timed
  /// with a TimedCall on `probe`. Adds a failure to `checks` when the
  /// pass's own outputs are inconsistent.
  virtual PassResult run(Checks& checks, HostProbe& probe) = 0;
  /// After the timed passes: re-checks what run() cannot see, on a stack
  /// the benchmark can inspect or in a verifying run, against `timed`.
  virtual void check(const PassResult& timed, Checks& checks) = 0;
  /// Traced pass. `untraced_ns` is the median untraced pass time, the
  /// baseline of tracing.overhead_pct. Returns the traced pass's results
  /// so the caller can compare them with the untraced ones.
  virtual PassResult run_traced(SpanRecorder& rec, double untraced_ns,
                                LayerMetrics& out, Checks& checks) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_lifetime(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_attack(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_service(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_tenants(std::uint64_t seed);

}  // namespace perfbench
