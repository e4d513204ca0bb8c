// Attack demo: runs the paper's inconsistent-write attack (Section 3.2)
// against a prediction-based scheme (BWL) and against TWL, narrating what
// the attacker observes through the response-time side channel.
//
//   ./attack_demo [--pages N] [--endurance E] [--scheme BWL|WRL|TWL|SR]
#include "device/factory.h"
#include "analysis/extrapolate.h"
#include "analysis/report.h"
#include "common/cli.h"
#include "obs/report.h"
#include "sim/attack_sim.h"

namespace {

constexpr const char kUsage[] =
    "usage: attack_demo [flags]\n"
    "  Inconsistent-write attack walkthrough.\n"
    "  --pages N       scaled device size in pages (default 1024)\n"
    "  --endurance E   mean per-page endurance (default 32768)\n"
    "  --scheme NAME   attack a single scheme (default: BWL WRL SR TWL)\n"
    "  --seed S        RNG seed\n"
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
  SimScale scale;
  scale.pages = args.get_uint_or("pages", 1024);
  scale.endurance_mean = args.get_double_or("endurance", 32768);
  scale.seed = args.get_uint_or("seed", scale.seed);
  Config config = Config::scaled(scale);
  apply_device_flag(args, config);

  ReportBuilder rep("attack_demo",
                    parse_report_format(args.get_or("format", "text")),
                    args.get_or("out", ""));
  rep.begin_report("Inconsistent-write attack demo");
  rep.raw_text(heading("Inconsistent-write attack demo"));
  rep.note(
      "The attacker writes N addresses with an ascending weight profile,\n"
      "watches response times for the blocking swap phase, then reverses\n"
      "the profile so the page the victim parked on its weakest cell is\n"
      "exactly the page it hammers next.\n");
  rep.config_entry("pages", scale.pages);
  rep.config_entry("endurance_mean", scale.endurance_mean);
  rep.config_entry("seed", scale.seed);

  const double ideal_years = RealSystem{}.ideal_lifetime_years;
  const std::vector<std::string> victims =
      args.has("scheme") ? std::vector<std::string>{args.get_or("scheme", "")}
                         : std::vector<std::string>{"BWL", "WRL", "SR", "TWL"};

  for (const auto& name : victims) {
    const Scheme scheme = parse_scheme(name);
    AttackSimulator sim(config);
    const auto attack = make_attack("inconsistent", scale.pages, 7);
    const auto* inconsistent =
        dynamic_cast<const InconsistentAttack*>(attack.get());
    const auto r = sim.run(scheme, *attack, WriteCount{1} << 40);
    const double years =
        years_from_fraction(r.fraction_of_ideal, ideal_years);
    rep.note(strfmt(
        "\nvictim %-4s: PCM died after %llu attacker writes "
        "(extrapolated lifetime %s)\n"
        "  swap phases the attacker detected and reacted to: %llu\n"
        "  blocking reorganizations the victim performed:    %llu\n",
        r.scheme.c_str(), static_cast<unsigned long long>(r.demand_writes),
        fmt_lifetime_years(years).c_str(),
        static_cast<unsigned long long>(
            inconsistent ? inconsistent->phase_flips() : 0),
        static_cast<unsigned long long>(r.stats.blocking_events)));
    rep.scalar(r.scheme + ".lifetime_years", years);
    rep.scalar(r.scheme + ".blocking_events",
               static_cast<double>(r.stats.blocking_events));
  }

  rep.note(
      "\nPrediction-based schemes (BWL, WRL) expose their swap phases and\n"
      "die orders of magnitude early; SR and TWL never act on predictions,\n"
      "so the reversed distribution buys the attacker nothing.\n");
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
