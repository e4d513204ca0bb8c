// Figure 9 reproduction: execution time under BWL, SR and TWL normalized
// to NOWL, per PARSEC benchmark model, plus the average overhead.
//
// Expected shape (paper): BWL ~6.5% average overhead (filters + list on
// every write, plus bulk swaps), SR ~2.0%, TWL ~1.9% with a worst case of
// ~2.7% (vips).
#include <map>
#include <vector>

#include "analysis/report.h"
#include "bench_common.h"
#include "common/sim_runner.h"
#include "common/stats.h"
#include "sim/timing_sim.h"
#include "trace/parsec_model.h"

namespace {

constexpr const char kUsage[] =
    "usage: bench_fig9 [flags]\n"
    "  Figure 9: performance overhead.\n"
    "  --pages N       scaled device size in pages\n"
    "  --endurance E   mean per-page endurance\n"
    "  --sigma F       endurance sigma fraction\n"
    "  --seed S        RNG seed\n"
    "  --requests R    timed requests per workload\n"
    "  --mlp M         memory-level parallelism\n"
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

int run_impl(const twl::CliArgs& args) {
  using namespace twl;
  // Endurance is irrelevant for timing (no page dies in a short run);
  // keep it at the real-system ratio so SR's auto-scaled refresh
  // intervals match the paper's suggested settings.
  const auto setup = bench::make_setup(args, 2048, 1e8);
  const std::uint64_t requests = args.get_uint_or("requests", 300000);
  const std::uint32_t mlp = args.get_u32_or("mlp", 8);
  ReportBuilder rep = bench::make_reporter("bench_fig9", args);
  bench::check_unconsumed(args);
  bench::report_banner(
      rep, "Figure 9: normalized execution time (vs no wear leveling)",
      setup);
  rep.config_entry("requests", requests);
  rep.config_entry("mlp", mlp);

  const std::vector<Scheme> schemes = {Scheme::kBloomWl,
                                       Scheme::kSecurityRefresh,
                                       Scheme::kTossUpStrongWeak};
  const TimingSimulator sim(setup.config, mlp);
  const auto& benchmarks = parsec_benchmarks();

  // Grid: per benchmark, the NOWL baseline plus each scheme — every cell
  // replays its own copy of the request stream, so the baseline cell is
  // independent of the scheme cells it later normalizes.
  const std::size_t columns = 1 + schemes.size();
  std::vector<Cycles> cycles_out(benchmarks.size() * columns, 0);
  std::vector<SimCell> cells;
  cells.reserve(cycles_out.size());
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    for (std::size_t c = 0; c < columns; ++c) {
      cells.push_back([&, b, c]() -> std::uint64_t {
        const Scheme scheme = c == 0 ? Scheme::kNoWl : schemes[c - 1];
        auto source =
            benchmarks[b].make_source(setup.pages, setup.config.seed);
        const auto result = sim.run(scheme, *source, requests);
        cycles_out[b * columns + c] = result.total_cycles;
        return result.demand_writes;
      });
    }
  }
  SimRunner runner(setup.jobs);
  const RunnerReport report = runner.run_all(cells);

  std::map<Scheme, std::vector<double>> normalized;
  TextTable table;
  table.add_row({"benchmark", "BWL", "SR", "TWL"});
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const auto base = cycles_out[b * columns];
    std::vector<std::string> row{benchmarks[b].name};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const double norm =
          static_cast<double>(cycles_out[b * columns + 1 + s]) /
          static_cast<double>(base);
      normalized[schemes[s]].push_back(norm);
      row.push_back(fmt_double(norm, 4));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg_row{"Average"};
  for (const Scheme scheme : schemes) {
    avg_row.push_back(fmt_double(geomean(normalized[scheme]), 4));
  }
  table.add_row(std::move(avg_row));
  rep.table("normalized_execution_time", table);

  rep.note(
      "\npaper reference (average overhead): BWL 6.48%, SR 1.97%, "
      "TWL 1.90%; TWL worst case 2.7% (vips).\n");
  rep.scalar("twl_average_overhead",
             geomean(normalized[Scheme::kTossUpStrongWeak]) - 1.0);
  bench::report_runner_footer(rep, report);
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
