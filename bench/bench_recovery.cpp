// Crash-consistency cost curves: journal write amplification and recovery
// effort as a function of the snapshot interval, for every scheme.
//
// Each cell runs a batch of crash/recovery trials (sim/crash_sim.h): a
// journaled run interrupted at a uniformly random demand write, recovered
// from the last snapshot plus the surviving journal prefix, with the five
// recovery invariants checked. The table reports the deterministic cost
// metrics — journal bytes appended per demand write, snapshot blob size,
// snapshots taken, and the recovery effort (demand writes replayed) whose
// mean is interval/2 by construction. Rows are identical for any --jobs
// value; only the [runner] footer varies.
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "bench_common.h"
#include "common/sim_runner.h"
#include "recovery/snapshot.h"
#include "sim/crash_sim.h"
#include "wl/factory.h"

namespace {

constexpr const char kUsage[] =
    "usage: bench_recovery [flags]\n"
    "  Crash-consistency costs: journal amplification and recovery effort\n"
    "  per scheme, across snapshot intervals.\n"
    "  --pages N       scaled device size in pages (default 256)\n"
    "  --endurance E   mean per-page endurance (default 1e6)\n"
    "  --sigma F       endurance sigma fraction (default 0.11)\n"
    "  --seed S        RNG seed\n"
    "  --writes W      demand writes per journaled run (default 2048)\n"
    "  --trials T      crash trials per cell (default 8)\n"
    "  --jobs N        parallel simulation cells (default: all cores; "
    "1 = serial)\n"
    "  --format F      report format: text (default), json, csv\n"
    "  --out FILE      write the report to FILE instead of stdout\n"
    "  --device B             storage backend: pcm (default), nor, hybrid\n"
    "  --nor-block-pages N    NOR erase-block size in pages (default 16)\n"
    "  --hybrid-cache-pages N  hybrid DRAM cache capacity in pages "
    "(default 64)\n"
    "  --hybrid-ways N        hybrid cache associativity (default 4)\n"
    "  --help          show this message\n";

struct RecoveryCell {
  std::string spec;
  std::uint64_t interval = 0;
  std::uint64_t trials_ok = 0;
  std::uint64_t trials = 0;
  double journal_bytes_per_write = 0.0;
  std::uint64_t snapshot_bytes = 0;
  double snapshots_per_trial = 0.0;
  double mean_replayed = 0.0;
  std::uint64_t max_replayed = 0;
};

int run_impl(const twl::CliArgs& args) {
  using namespace twl;
  auto setup = bench::make_setup(args, 256, 1e6);
  const std::uint64_t writes = args.get_uint_or("writes", 2048);
  const std::uint64_t trials = args.get_uint_or("trials", 8);
  if (trials == 0) {
    throw std::invalid_argument("--trials must be at least 1");
  }
  ReportBuilder rep = bench::make_reporter("bench_recovery", args);
  bench::check_unconsumed(args);

  bench::report_banner(rep, "Crash recovery costs (journal + snapshots)",
                       setup);
  rep.config_entry("writes", writes);
  rep.config_entry("trials", trials);
  rep.note(strfmt(
      "journaled runs of %llu demand writes, %llu crash trials per cell\n\n",
      static_cast<unsigned long long>(writes),
      static_cast<unsigned long long>(trials)));

  const std::vector<std::uint64_t> intervals = {64, 256, 1024};
  std::vector<std::string> specs;
  for (const Scheme s : all_schemes()) specs.push_back(to_string(s));

  std::vector<RecoveryCell> out(specs.size() * intervals.size());
  std::vector<SimCell> cells;
  cells.reserve(out.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = 0; j < intervals.size(); ++j) {
      const std::size_t idx = i * intervals.size() + j;
      cells.push_back([&, i, j, idx]() -> std::uint64_t {
        RecoveryCell& cell = out[idx];
        cell.spec = specs[i];
        cell.interval = intervals[j];
        cell.trials = trials;

        CrashSimParams params;
        params.scheme_spec = specs[i];
        params.total_writes = writes;
        params.snapshot_interval = intervals[j];
        params.verify_continuation = false;
        const CrashSimulator sim(setup.config, params);

        // Snapshot blob size is state-dependent only through vector
        // lengths, which are fixed per configuration: one fresh blob
        // represents every periodic snapshot of the run.
        {
          const EnduranceMap map(setup.config.geometry.pages(),
                                 setup.config.endurance, setup.config.seed);
          const auto wl = make_wear_leveler_spec(specs[i], map, setup.config);
          cell.snapshot_bytes = take_snapshot(*wl).size();
        }

        std::uint64_t demand = 0;
        double bytes_per_write = 0.0;
        for (std::uint64_t t = 0; t < trials; ++t) {
          const CrashTrialResult r = sim.run_trial(t);
          cell.trials_ok += r.verdicts.all_hold() ? 1 : 0;
          bytes_per_write += static_cast<double>(r.journal_bytes_total) /
                             static_cast<double>(r.crash_write);
          cell.snapshots_per_trial += static_cast<double>(r.snapshots_taken);
          cell.mean_replayed += static_cast<double>(r.replayed_writes);
          if (r.replayed_writes > cell.max_replayed) {
            cell.max_replayed = r.replayed_writes;
          }
          demand += r.crash_write;
        }
        const double n = static_cast<double>(trials);
        cell.journal_bytes_per_write = bytes_per_write / n;
        cell.snapshots_per_trial /= n;
        cell.mean_replayed /= n;
        return demand;
      });
    }
  }
  SimRunner runner(setup.jobs);
  const RunnerReport report = runner.run_all(cells);

  TextTable table;
  table.add_row({"scheme", "interval", "journal B/wr", "snapshot B",
                 "snapshots", "replay mean", "replay max", "invariants"});
  for (const RecoveryCell& cell : out) {
    table.add_row({cell.spec, std::to_string(cell.interval),
                   fmt_double(cell.journal_bytes_per_write, 1),
                   std::to_string(cell.snapshot_bytes),
                   fmt_double(cell.snapshots_per_trial, 1),
                   fmt_double(cell.mean_replayed, 1),
                   std::to_string(cell.max_replayed),
                   std::to_string(cell.trials_ok) + "/" +
                       std::to_string(cell.trials)});
  }
  rep.table("recovery_costs", table);
  rep.note(
      "\n'journal B/wr' is the write-ahead-log amplification per demand\n"
      "write (swap-heavy schemes append more intent/commit pairs).\n"
      "'replay mean/max' is the recovery effort in demand writes —\n"
      "bounded by the snapshot interval, mean ~interval/2. 'invariants'\n"
      "counts trials where all five recovery invariants held.\n");
  bench::report_runner_footer(rep, report);
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
