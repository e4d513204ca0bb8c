// Figure 7 reproduction: choosing the toss-up interval.
//  (a) swap/write ratio (gmean over the PARSEC models) per interval;
//  (b) lifetime under the scan attack per interval, against the 3-year
//      server replacement floor.
//
// Expected shape (paper): ratio 37.9% at interval 1 dropping ~1/interval
// (about 2.2% at 32); lifetime decreases as the interval grows; interval
// 32 is the chosen operating point, above the 3-year floor.
#include <memory>
#include <vector>

#include "analysis/extrapolate.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "common/sim_runner.h"
#include "common/stats.h"
#include "pcm/device.h"
#include "sim/attack_sim.h"
#include "sim/memory_controller.h"
#include "trace/parsec_model.h"
#include "wl/tossup_wl.h"

namespace {

// Swap/write ratio of TWL at `interval` for one benchmark model, measured
// over a fixed number of demand writes (the ratio converges quickly).
double swap_ratio(const twl::Config& config, const twl::ParsecBenchmark& b,
                  std::uint64_t pages, std::uint64_t writes) {
  using namespace twl;
  const EnduranceMap map(pages, config.endurance, config.seed);
  TossUpWl wl(map, config.twl, config.wl_latencies,
              config.endurance.table_bits, config.seed);
  PcmDevice device(map);
  MemoryController mc(device, wl, config, /*enable_timing=*/false);
  const auto source = b.make_source(pages, config.seed);
  while (wl.demand_writes() < writes) {
    mc.submit(MemoryRequest{Op::kWrite, source->next_write()}, 0);
  }
  return static_cast<double>(wl.tossup_swaps()) /
         static_cast<double>(wl.demand_writes());
}

}  // namespace

namespace {

constexpr const char kUsage[] =
    "usage: bench_fig7 [flags]\n"
    "  Figure 7: tossup interval sweep.\n"
    "  --pages N         scaled device size in pages\n"
    "  --endurance E     mean per-page endurance\n"
    "  --sigma F         endurance sigma fraction\n"
    "  --seed S          RNG seed\n"
    "  --writes W        writes used for the swap-ratio measurement\n"
    "  --jobs N          parallel simulation cells (default: all cores; "
    "1 = serial)\n"
    "  --format F        report format: text (default), json, csv\n"
    "  --out FILE        write the report to FILE instead of stdout\n"
    "  --device B             storage backend: pcm (default), nor, hybrid\n"
    "  --nor-block-pages N    NOR erase-block size in pages (default 16)\n"
    "  --hybrid-cache-pages N  hybrid DRAM cache capacity in pages "
    "(default 64)\n"
    "  --hybrid-ways N        hybrid cache associativity (default 4)\n"
    "  --help          show this message\n";

int run_impl(const twl::CliArgs& args) {
  using namespace twl;
  const auto setup = bench::make_setup(args, 1024, 65536);
  const std::uint64_t ratio_writes = args.get_uint_or("writes", 200000);
  ReportBuilder rep = bench::make_reporter("bench_fig7", args);
  bench::check_unconsumed(args);
  bench::report_banner(rep, "Figure 7: choosing the toss-up interval", setup);
  rep.config_entry("writes", ratio_writes);

  const double ideal_years = RealSystem{}.ideal_lifetime_years;
  const std::vector<std::uint32_t> intervals = {1, 2,  4,  8,
                                                16, 32, 64, 128};
  const auto& benchmarks = parsec_benchmarks();
  // Three accountings of swap wear (see EXPERIMENTS.md): with physical
  // migration wear, within-pair endurance bias cancels under the scan's
  // symmetric traffic and lifetime *rises* with the interval (swaps are
  // purely parasitic); the paper's falling trend only appears when
  // migration writes are treated as a performance cost but not as wear
  // ("paper accounting").
  struct Variant {
    bool two_write;
    bool migration_wear;
  };
  const std::vector<Variant> variants = {
      {true, true}, {false, true}, {true, false}};

  // Grid: per interval, one ratio cell per PARSEC model plus one lifetime
  // cell per accounting variant. Cells write only their own slot.
  const std::size_t per_interval = benchmarks.size() + variants.size();
  std::vector<double> ratio_out(intervals.size() * benchmarks.size(), 0.0);
  std::vector<double> years_out(intervals.size() * variants.size(), 0.0);
  std::vector<SimCell> cells;
  cells.reserve(intervals.size() * per_interval);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    Config config = setup.config;
    config.twl.tossup_interval = intervals[i];
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
      cells.push_back([&, config, i, b]() -> std::uint64_t {
        // Geomean needs positive values; floor at one swap per run.
        ratio_out[i * benchmarks.size() + b] = std::max(
            swap_ratio(config, benchmarks[b], setup.pages, ratio_writes),
            1.0 / static_cast<double>(ratio_writes));
        return ratio_writes;
      });
    }
    for (std::size_t v = 0; v < variants.size(); ++v) {
      cells.push_back([&, config, i, v]() -> std::uint64_t {
        Config variant = config;
        variant.twl.two_write_swap = variants[v].two_write;
        variant.migration_wear = variants[v].migration_wear;
        const AttackSimulator sim(variant);
        ScanAttack scan(setup.pages);
        const auto result =
            sim.run(Scheme::kTossUpStrongWeak, scan, WriteCount{1} << 40);
        years_out[i * variants.size() + v] =
            years_from_fraction(result.fraction_of_ideal, ideal_years);
        return result.demand_writes;
      });
    }
  }
  SimRunner runner(setup.jobs);
  const RunnerReport report = runner.run_all(cells);

  TextTable table;
  table.add_row({"toss-up interval", "swap/write ratio (PARSEC gmean)",
                 "scan lifetime (2-write swap)",
                 "scan lifetime (3-write swap)",
                 "scan lifetime (paper accounting)"});
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const std::vector<double> ratios(
        ratio_out.begin() +
            static_cast<std::ptrdiff_t>(i * benchmarks.size()),
        ratio_out.begin() +
            static_cast<std::ptrdiff_t>((i + 1) * benchmarks.size()));
    std::vector<std::string> row{std::to_string(intervals[i]),
                                 fmt_percent(geomean(ratios), 1)};
    for (std::size_t v = 0; v < variants.size(); ++v) {
      row.push_back(fmt_lifetime_years(years_out[i * variants.size() + v]));
    }
    table.add_row(std::move(row));
  }
  rep.table("interval_sweep", table);
  rep.note(
      "\nminimum requirement (server replacement cycle): 3 years\n"
      "paper reference: 37.9% ratio at interval 1; ~2.2% extra writes at "
      "interval 32;\nlifetime decreases with larger intervals; chosen "
      "operating point: 32.\n");
  bench::report_runner_footer(rep, report);
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
