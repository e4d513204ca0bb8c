// Lifetime study: how does each scheme's lifetime respond to the severity
// of process variation? Sweeps the endurance sigma from 0 (no PV — where
// PV-oblivious leveling is optimal) to 30% (where endurance-aware
// allocation matters most) under a skewed workload.
//
//   ./lifetime_study [--pages N] [--endurance E] [--top-frac F] [--jobs N]
#include <vector>

#include "device/factory.h"
#include "analysis/report.h"
#include "common/cli.h"
#include "common/sim_runner.h"
#include "obs/report.h"
#include "sim/lifetime_sim.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace {

constexpr const char kUsage[] =
    "usage: lifetime_study [flags]\n"
    "  Lifetime across schemes and skews.\n"
    "  --pages N       scaled device size in pages (default 1024)\n"
    "  --endurance E   mean per-page endurance\n"
    "  --top-frac F    write share of the hottest page\n"
    "  --seed S        RNG seed\n"
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
  const std::uint64_t pages = args.get_uint_or("pages", 1024);
  const double endurance = args.get_double_or("endurance", 16384);
  const double top_frac = args.get_double_or("top-frac", 0.05);
  const std::uint64_t seed = args.get_uint_or("seed", SimScale{}.seed);
  const unsigned jobs = SimRunner::resolve_jobs(args.get_u32_or("jobs", 0));

  ReportBuilder rep("lifetime_study",
                    parse_report_format(args.get_or("format", "text")),
                    args.get_or("out", ""));
  rep.begin_report("Lifetime vs process-variation severity");
  rep.raw_text(heading("Lifetime vs process-variation severity"));
  rep.note(strfmt("workload: Zipf with %.0f%% of writes on the hottest "
                  "page; values are fractions of ideal lifetime\n\n",
                  top_frac * 100));
  rep.config_entry("pages", pages);
  rep.config_entry("endurance_mean", endurance);
  rep.config_entry("top_frac", top_frac);
  rep.config_entry("seed", seed);
  rep.config_entry("jobs", jobs);

  const std::vector<Scheme> schemes = {
      Scheme::kSecurityRefresh, Scheme::kBloomWl, Scheme::kTossUpAdjacent,
      Scheme::kTossUpStrongWeak};
  const std::vector<double> sigmas = {0.0, 0.05, 0.11, 0.2, 0.3};

  // One simulator per sigma, built up front and shared read-only across
  // that sigma's cells so every scheme competes on the same device draw.
  std::vector<LifetimeSimulator> sims;
  sims.reserve(sigmas.size());
  for (const double sigma : sigmas) {
    SimScale scale;
    scale.pages = pages;
    scale.endurance_mean = endurance;
    scale.endurance_sigma_frac = sigma;
    scale.seed = seed;
    Config config = Config::scaled(scale);
    apply_device_flag(args, config);
    sims.emplace_back(config);
  }

  std::vector<double> out(sigmas.size() * schemes.size(), 0.0);
  std::vector<SimCell> cells;
  cells.reserve(out.size());
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      cells.push_back([&, i, s]() -> std::uint64_t {
        SyntheticParams wp;
        wp.pages = pages;
        wp.zipf_s =
            ZipfSampler::solve_exponent_for_top_fraction(pages, top_frac);
        wp.read_frac = 0.0;
        wp.seed = 5;
        SyntheticTrace workload(wp, "zipf");
        const auto r =
            sims[i].run(schemes[s], workload, WriteCount{1} << 40);
        out[i * schemes.size() + s] = r.fraction_of_ideal;
        return r.demand_writes;
      });
    }
  }
  SimRunner runner(jobs);
  const RunnerReport report = runner.run_all(cells);

  TextTable table;
  table.add_row({"sigma", "SR", "BWL", "TWL_ap", "TWL_swp"});
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    std::vector<std::string> row{fmt_percent(sigmas[i], 0)};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      row.push_back(fmt_double(out[i * schemes.size() + s], 3));
    }
    table.add_row(std::move(row));
  }
  rep.table("lifetime_fraction", table);
  rep.note(
      "\nReading: at sigma=0 every page is identical, so uniform leveling\n"
      "(SR) is near-ideal and endurance-aware bias buys nothing; as sigma\n"
      "grows, SR decays with the weakest page while the PV-aware schemes\n"
      "hold up — and strong-weak pairing increasingly beats adjacent\n"
      "pairing because it equalizes the pairs' endurance *sums*.\n");
  // This example predates the shared footer format; keep its bytes.
  rep.runner(report, /*print_legacy_footer=*/false);
  rep.raw_text(strfmt(
      "\n[runner] %zu cells, %u jobs: wall %.2f s, serial-equivalent "
      "%.2f s (speedup %.2fx)\n",
      report.cells, report.jobs, report.wall_seconds,
      report.cell_seconds_sum, report.parallel_speedup()));
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
