// Graceful degradation under the stuck-at fault model: run every scheme
// on a fault-tolerant device (ECP-6 + a spare pool) past the paper's
// first-page-death event and report how many demand writes each scheme
// absorbed before losing 1%, 5% and 10% of pool capacity to retirement,
// and before the device became fatally unserviceable (spare pool
// exhausted). Schemes that spread wear evenly retire their pages late and
// close together; schemes with hot spots start retiring early but keep
// limping along on spares.
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/wear_report.h"
#include "bench_common.h"
#include "common/sim_runner.h"
#include "sim/fault_sim.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace {

constexpr const char kUsage[] =
    "usage: bench_degradation [flags]\n"
    "  Graceful degradation: capacity-loss curves per scheme.\n"
    "  --pages N       scaled device size in pages (default 1024)\n"
    "  --endurance E   mean per-page endurance (default 16384)\n"
    "  --sigma F       endurance sigma fraction (default 0.11)\n"
    "  --seed S        RNG seed\n"
    "  --ecp-k K       correctable stuck cells per page (default 6)\n"
    "  --spare-frac F  fraction of pages reserved as spares (default 0.12)\n"
    "  --max-writes W  demand-write cap per run\n"
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
  auto setup = bench::make_setup(args, 1024, 16384);
  const std::uint32_t ecp_k = args.get_u32_or("ecp-k", 6);
  const double spare_frac = args.get_double_or("spare-frac", 0.12);
  const auto max_demand =
      static_cast<WriteCount>(args.get_uint_or("max-writes", 1ull << 40));
  ReportBuilder rep = bench::make_reporter("bench_degradation", args);
  bench::check_unconsumed(args);

  setup.config.fault.ecp_k = ecp_k;
  setup.config.fault.spare_pages = static_cast<std::uint64_t>(
      static_cast<double>(setup.pages) * spare_frac);
  // TWL pairs pool pages, so keep the scheme-visible pool even.
  if ((setup.pages - setup.config.fault.spare_pages) % 2 != 0) {
    ++setup.config.fault.spare_pages;
  }

  bench::report_banner(
      rep, "Graceful degradation (ECP + spare-pool retirement)", setup);
  rep.config_entry("ecp_k", ecp_k);
  rep.config_entry("spare_pages", setup.config.fault.spare_pages);
  rep.config_entry("max_writes", max_demand);
  rep.note(strfmt(
      "fault model: ECP-%u, first stuck cell at endurance, spare pool %llu "
      "pages (%.0f%% of device)\n\n",
      ecp_k,
      static_cast<unsigned long long>(setup.config.fault.spare_pages),
      spare_frac * 100.0));

  const FaultSimulator sim(setup.config);
  const auto ideal = sim.ideal_demand_writes();
  const std::uint64_t pool_pages =
      setup.pages - setup.config.fault.spare_pages;

  const auto schemes = all_schemes();
  std::vector<FaultSimResult> out(schemes.size());
  std::vector<SimCell> cells;
  cells.reserve(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    cells.push_back([&, s]() -> std::uint64_t {
      SyntheticParams wp;
      wp.pages = pool_pages;  // the scheme-visible (pool) address space
      wp.zipf_s =
          ZipfSampler::solve_exponent_for_top_fraction(pool_pages, 0.1);
      wp.seed = setup.config.seed;
      SyntheticTrace source(wp);
      out[s] = sim.run(schemes[s], source, max_demand);
      return out[s].demand_writes;
    });
  }
  SimRunner runner(setup.jobs);
  const RunnerReport report = runner.run_all(cells);

  TextTable table;
  table.add_row({"scheme", "1st failure", "1% lost", "5% lost", "10% lost",
                 "fatal", "retired", "% of ideal"});
  for (const FaultSimResult& r : out) {
    const auto cell = [](WriteCount w) {
      return w == 0 ? std::string("-") : std::to_string(w);
    };
    table.add_row(
        {r.scheme, std::to_string(r.first_failure_writes),
         cell(r.demand_writes_to_loss(0.01)),
         cell(r.demand_writes_to_loss(0.05)),
         cell(r.demand_writes_to_loss(0.10)),
         r.fatal ? std::to_string(r.fatal_writes) : std::string("(cap)"),
         std::to_string(r.pages_retired),
         fmt_percent(static_cast<double>(r.demand_writes) /
                         static_cast<double>(ideal),
                     1)});
  }
  rep.table("capacity_loss", table);
  rep.note(
      "\nColumns are demand writes absorbed when: the first page went\n"
      "uncorrectable (the paper's lifetime event), the pool lost 1/5/10%\n"
      "of capacity to retirement, and a page died with no spare left.\n"
      "'-' means the run ended before reaching that loss level.\n");
  bench::report_runner_footer(rep, report);
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
