// Interval tuning: reproduce the Section 5.2 design decision — pick the
// largest toss-up interval whose worst-case (scan attack) lifetime still
// clears the server replacement floor of 3 years. Larger intervals mean
// less swap overhead, so the largest admissible interval wins.
//
//   ./interval_tuning [--pages N] [--endurance E] [--floor-years Y]
#include "device/factory.h"
#include "analysis/extrapolate.h"
#include "analysis/report.h"
#include "common/cli.h"
#include "obs/report.h"
#include "sim/attack_sim.h"

namespace {

constexpr const char kUsage[] =
    "usage: interval_tuning [flags]\n"
    "  Choosing the tossup interval.\n"
    "  --pages N        scaled device size in pages (default 1024)\n"
    "  --endurance E    mean per-page endurance\n"
    "  --floor-years Y  minimum acceptable attack lifetime\n"
    "  --seed S         RNG seed\n"
    "  --format F       report format: text (default), json, csv\n"
    "  --out FILE       write the report to FILE instead of stdout\n"
    "  --device B             storage backend: pcm (default), nor, hybrid\n"
    "  --nor-block-pages N    NOR erase-block size in pages (default 16)\n"
    "  --hybrid-cache-pages N  hybrid DRAM cache capacity in pages "
    "(default 64)\n"
    "  --hybrid-ways N        hybrid cache associativity (default 4)\n"
    "  --help          show this message\n";

int run_impl(const twl::CliArgs& args) {
  using namespace twl;
  SimScale scale;
  scale.pages = args.get_uint_or("pages", 1024);
  scale.endurance_mean = args.get_double_or("endurance", 65536);
  scale.seed = args.get_uint_or("seed", scale.seed);
  const double floor_years = args.get_double_or("floor-years", 3.0);

  ReportBuilder rep("interval_tuning",
                    parse_report_format(args.get_or("format", "text")),
                    args.get_or("out", ""));
  rep.begin_report("Toss-up interval tuning");
  rep.raw_text(heading("Toss-up interval tuning"));
  rep.note(strfmt(
      "constraint: worst-case (scan attack) lifetime >= %.1f years\n"
      "objective:  minimize swap overhead (grows ~1/interval)\n\n",
      floor_years));
  rep.config_entry("pages", scale.pages);
  rep.config_entry("endurance_mean", scale.endurance_mean);
  rep.config_entry("seed", scale.seed);
  rep.config_entry("floor_years", floor_years);

  const double ideal_years = RealSystem{}.ideal_lifetime_years;
  std::uint32_t chosen = 1;

  TextTable table;
  table.add_row({"interval", "scan lifetime", "extra writes", "verdict"});
  for (const std::uint32_t interval : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    Config config = Config::scaled(scale);
    apply_device_flag(args, config);
    config.twl.tossup_interval = interval;
    AttackSimulator sim(config);
    ScanAttack scan(scale.pages);
    const auto r =
        sim.run(Scheme::kTossUpStrongWeak, scan, WriteCount{1} << 40);
    const double years =
        years_from_fraction(r.fraction_of_ideal, ideal_years);
    const double overhead = static_cast<double>(r.stats.extra_writes()) /
                            static_cast<double>(r.stats.demand_writes);
    const bool ok = years >= floor_years;
    if (ok) chosen = interval;
    table.add_row({std::to_string(interval), fmt_lifetime_years(years),
                   fmt_percent(overhead, 1), ok ? "ok" : "below floor"});
  }
  rep.table("interval_sweep", table);
  rep.note(strfmt("\nchosen interval: %u (paper chose 32 at ~2.2%% extra "
                  "writes)\n", chosen));
  rep.scalar("chosen_interval", chosen);
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
