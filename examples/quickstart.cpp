// Quickstart: build a scaled PCM with process variation, attach Toss-up
// Wear Leveling, run a skewed workload to the first page failure, and
// report what the wear leveler did.
//
//   ./quickstart [--pages N] [--endurance E] [--seed S] [--format json]
#include "analysis/report.h"
#include "common/cli.h"
#include "common/config.h"
#include "device/factory.h"
#include "common/stats.h"
#include "obs/report.h"
#include "sim/lifetime_sim.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace {

constexpr const char kUsage[] =
    "usage: quickstart [flags]\n"
    "  Smallest end-to-end TWL simulation.\n"
    "  --pages N       scaled device size in pages (default 1024)\n"
    "  --endurance E   mean per-page endurance (default 8192)\n"
    "  --seed S        RNG seed (default 1)\n"
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

  // 1. Describe the (scaled) device. Config::scaled keeps every Table 1
  //    parameter of the paper except size and endurance.
  SimScale scale;
  scale.pages = args.get_uint_or("pages", 1024);
  scale.endurance_mean = args.get_double_or("endurance", 8192);
  scale.seed = args.get_uint_or("seed", 1);
  Config config = Config::scaled(scale);
  apply_device_flag(args, config);

  ReportBuilder rep("quickstart",
                    parse_report_format(args.get_or("format", "text")),
                    args.get_or("out", ""));
  rep.begin_report("TWL quickstart");
  rep.raw_text(heading("TWL quickstart"));
  rep.note(strfmt("device: %llu pages, mean endurance %.0f writes/page\n\n",
                  static_cast<unsigned long long>(scale.pages),
                  scale.endurance_mean));
  rep.config_entry("pages", scale.pages);
  rep.config_entry("endurance_mean", scale.endurance_mean);
  rep.config_entry("seed", scale.seed);

  // 2. A skewed workload: hottest page gets ~10% of all writes.
  SyntheticParams wp;
  wp.pages = scale.pages;
  wp.zipf_s = ZipfSampler::solve_exponent_for_top_fraction(scale.pages, 0.1);
  wp.read_frac = 0.0;
  wp.seed = scale.seed;

  // 3. Run to first failure under NOWL and under TWL.
  LifetimeSimulator sim(config);
  for (const Scheme scheme : {Scheme::kNoWl, Scheme::kTossUpStrongWeak}) {
    SyntheticTrace workload(wp, "zipf-10%");
    const auto r = sim.run(scheme, workload, WriteCount{1} << 40);
    rep.note(strfmt("%-8s first page died after %llu demand writes "
                    "(%.1f%% of ideal; %.2fx write amplification)\n"
                    "         %s\n",
                    r.scheme.c_str(),
                    static_cast<unsigned long long>(r.demand_writes),
                    r.fraction_of_ideal * 100.0,
                    static_cast<double>(r.physical_writes) /
                        static_cast<double>(r.demand_writes),
                    format_wear_summary(r.wear).c_str()));
    rep.scalar(r.scheme + ".fraction_of_ideal", r.fraction_of_ideal);
    rep.scalar(r.scheme + ".demand_writes",
               static_cast<double>(r.demand_writes));
  }

  rep.note(strfmt(
      "\nTWL bonds each page to a partner (strong-weak pairing), and every\n"
      "%u writes a toss-up reallocates the write with probability\n"
      "E_A/(E_A+E_B) — so strong pages absorb more of the traffic without\n"
      "any prediction of future writes.\n",
      config.twl.tossup_interval));
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
