// Benches for the systems beyond the paper's evaluation:
//  1. OD3P graceful degradation ([1]): service life to a capacity floor
//     vs the paper's first-failure lifetime;
//  2. online attack detection ([11]): Guard(.) under the four attacks;
//  3. line-granularity PV model: how min-of-lines endurance shifts
//     lifetime vs the paper's page-level model;
//  4. TWL extensions: remaining-endurance bias and the adaptive interval.
#include <memory>
#include <vector>

#include "analysis/extrapolate.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "common/sim_runner.h"
#include "pcm/device.h"
#include "sim/attack_sim.h"
#include "sim/degradation_sim.h"
#include "sim/lifetime_sim.h"
#include "trace/parsec_model.h"
#include "wl/factory.h"
#include "wl/od3p.h"

namespace {

using namespace twl;

void degradation_section(const bench::BenchSetup& setup, SimRunner& runner,
                         ReportBuilder& rep) {
  rep.raw_text(heading("OD3P graceful degradation "
                            "(uniform writes, capacity floor 75%)"));
  const double ideal = RealSystem{}.ideal_lifetime_years;
  const std::vector<std::string> specs = {"od3p:NOWL", "od3p:SR", "od3p:TWL"};
  struct Out {
    std::string scheme;
    double first_years = 0.0;
    double floor_years = 0.0;
  };
  std::vector<Out> out(specs.size());
  std::vector<SimCell> cells;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cells.push_back([&, i]() -> std::uint64_t {
      const DegradationSimulator sim(setup.config);
      const auto wl = make_wear_leveler_spec(specs[i], sim.endurance(),
                                             setup.config);
      UniformTrace workload(setup.pages, 0.0, setup.config.seed);
      const auto r = sim.run(*wl, workload, 0.75, WriteCount{1} << 40);
      const double total =
          static_cast<double>(sim.endurance().total_endurance());
      out[i] = {r.scheme,
                years_from_fraction(
                    static_cast<double>(r.first_failure_writes) / total,
                    ideal),
                years_from_fraction(
                    static_cast<double>(r.floor_writes) / total, ideal)};
      return r.stats.demand_writes;
    });
  }
  runner.run_all(cells);

  TextTable t;
  t.add_row({"scheme", "first failure (yr)", "75%-capacity life (yr)",
             "extension"});
  for (const Out& o : out) {
    t.add_row({o.scheme, fmt_double(o.first_years, 2),
               fmt_double(o.floor_years, 2),
               "x" + fmt_double(o.floor_years / o.first_years, 2)});
  }
  rep.table("od3p_degradation", t);
  rep.note("(the paper stops at first failure; OD3P [1] keeps the "
           "device serving while capacity degrades)\n");
}

void guard_section(const bench::BenchSetup& setup, SimRunner& runner,
                   ReportBuilder& rep) {
  rep.raw_text(heading("Online attack detection [11]: lifetime "
                            "under attack (years)"));
  const double ideal = RealSystem{}.ideal_lifetime_years;
  const auto attacks = all_attack_names();
  const std::vector<std::string> specs = {"NOWL", "guard:NOWL", "BWL",
                                          "guard:BWL"};
  std::vector<double> out(attacks.size() * specs.size(), 0.0);
  std::vector<SimCell> cells;
  for (std::size_t a = 0; a < attacks.size(); ++a) {
    for (std::size_t s = 0; s < specs.size(); ++s) {
      cells.push_back([&, a, s]() -> std::uint64_t {
        const AttackSimulator sim(setup.config);
        const auto wl = make_wear_leveler_spec(specs[s], sim.endurance(),
                                               setup.config);
        const auto attack =
            make_attack(attacks[a], wl->logical_pages(), setup.config.seed);
        // Run through the attack simulator manually since it builds its
        // own scheme; reuse its endurance by constructing a fresh
        // controller.
        PcmDevice device(sim.endurance());
        MemoryController mc(device, *wl, setup.config, true);
        Cycles now = 0, lat = 0;
        const std::uint64_t space = wl->logical_pages();
        while (!device.failed() &&
               mc.stats().demand_writes < (WriteCount{1} << 40)) {
          MemoryRequest req = attack->next(lat);
          req.addr = LogicalPageAddr(req.addr.value() % space);
          lat = mc.submit(req, now);
          now += lat;
        }
        const double frac =
            static_cast<double>(mc.stats().demand_writes) /
            static_cast<double>(sim.endurance().total_endurance());
        out[a * specs.size() + s] = years_from_fraction(frac, ideal);
        return mc.stats().demand_writes;
      });
    }
  }
  runner.run_all(cells);

  TextTable t;
  t.add_row({"attack", "NOWL", "Guard(NOWL)", "BWL", "Guard(BWL)"});
  for (std::size_t a = 0; a < attacks.size(); ++a) {
    std::vector<std::string> row{attacks[a]};
    for (std::size_t s = 0; s < specs.size(); ++s) {
      row.push_back(fmt_lifetime_years(out[a * specs.size() + s]));
    }
    t.add_row(std::move(row));
  }
  rep.table("guard_detection", t);
  rep.note("(the guard throttles + scrambles flagged streams: hammer "
           "attacks slow down and spread out,\nbenign-looking "
           "random/scan streams pass through untouched)\n");
}

void line_model_section(const bench::BenchSetup& setup, SimRunner& runner,
                        ReportBuilder& rep) {
  rep.raw_text(heading("Line-granularity PV model vs the paper's "
                            "page-level model"));
  // Same mean line endurance; the page's effective endurance becomes
  // min-of-32-lines scaled by 1/dcw.
  const auto line_map = EnduranceMap::from_line_model(
      setup.pages, setup.config.geometry.lines_per_page(),
      setup.config.endurance, 0.5, setup.config.seed);
  const EnduranceMap page_map(setup.pages, setup.config.endurance,
                              setup.config.seed);
  const std::vector<std::pair<std::string, const EnduranceMap*>> entries = {
      {"page-level (paper)", &page_map},
      {"line-level (min of 32, dcw 0.5)", &line_map}};
  std::vector<double> out(entries.size(), 0.0);
  std::vector<SimCell> cells;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    cells.push_back([&, i]() -> std::uint64_t {
      const EnduranceMap& map = *entries[i].second;
      PcmDevice device(map);
      const auto wl =
          make_wear_leveler(Scheme::kTossUpStrongWeak, map, setup.config);
      MemoryController mc(device, *wl, setup.config, false);
      UniformTrace workload(setup.pages, 0.0, setup.config.seed);
      while (!device.failed()) {
        mc.submit(MemoryRequest{Op::kWrite, workload.next_write()}, 0);
      }
      out[i] = static_cast<double>(mc.stats().demand_writes) /
               static_cast<double>(map.total_endurance());
      return mc.stats().demand_writes;
    });
  }
  runner.run_all(cells);

  TextTable t;
  t.add_row({"model", "mean endurance", "min endurance",
             "TWL lifetime fraction"});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const EnduranceMap& map = *entries[i].second;
    t.add_row({entries[i].first,
               fmt_double(static_cast<double>(map.total_endurance()) /
                              static_cast<double>(setup.pages),
                          0),
               std::to_string(map.min_endurance()), fmt_double(out[i], 3)});
  }
  rep.table("line_model", t);
}

void twl_variants_section(const bench::BenchSetup& setup, SimRunner& runner,
                          ReportBuilder& rep) {
  rep.raw_text(heading("TWL extensions: bias source and adaptive "
                            "interval (repeat attack)"));
  const double ideal = RealSystem{}.ideal_lifetime_years;
  struct Variant {
    const char* label;
    TossBias bias;
    bool adaptive;
  };
  const std::vector<Variant> variants = {
      {"static interval 32, initial-E bias (paper)",
       TossBias::kInitialEndurance, false},
      {"static interval 32, remaining-E bias",
       TossBias::kRemainingEndurance, false},
      {"adaptive interval, initial-E bias", TossBias::kInitialEndurance,
       true},
      {"adaptive interval, remaining-E bias", TossBias::kRemainingEndurance,
       true}};
  struct Out {
    double years = 0.0;
    double extra_frac = 0.0;
  };
  std::vector<Out> out(variants.size());
  std::vector<SimCell> cells;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    cells.push_back([&, v]() -> std::uint64_t {
      Config config = setup.config;
      config.twl.bias = variants[v].bias;
      config.twl.adaptive_interval = variants[v].adaptive;
      const AttackSimulator sim(config);
      RepeatAttack attack(LogicalPageAddr(0));
      const auto r =
          sim.run(Scheme::kTossUpStrongWeak, attack, WriteCount{1} << 40);
      out[v] = {years_from_fraction(r.fraction_of_ideal, ideal),
                static_cast<double>(r.stats.extra_writes()) /
                    static_cast<double>(r.stats.demand_writes)};
      return r.demand_writes;
    });
  }
  runner.run_all(cells);

  TextTable t;
  t.add_row({"variant", "lifetime", "final interval", "extra writes"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    t.add_row({variants[v].label, fmt_lifetime_years(out[v].years),
               variants[v].adaptive
                   ? "adaptive"
                   : fmt_double(setup.config.twl.tossup_interval, 0),
               fmt_percent(out[v].extra_frac, 1)});
  }
  rep.table("twl_variants", t);
}

}  // namespace

namespace {

constexpr const char kUsage[] =
    "usage: bench_extensions [flags]\n"
    "  Extensions beyond the paper (od3p, guard, variants).\n"
    "  --pages N       scaled device size in pages\n"
    "  --endurance E   mean per-page endurance\n"
    "  --sigma F       endurance sigma as fraction of mean\n"
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
  const auto setup = bench::make_setup(args, 1024, 32768);
  ReportBuilder rep = bench::make_reporter("bench_extensions", args);
  bench::check_unconsumed(args);
  bench::report_banner(rep, "Extensions beyond the paper's evaluation",
                       setup);

  SimRunner runner(setup.jobs);
  degradation_section(setup, runner, rep);
  guard_section(setup, runner, rep);
  line_model_section(setup, runner, rep);
  twl_variants_section(setup, runner, rep);
  bench::report_runner_footer(rep, runner.report());
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
