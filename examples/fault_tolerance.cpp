// Fault tolerance walkthrough: the same scheme on the same device, first
// with the paper's binary wear-out (first dead page ends the device),
// then with ECP correction alone, then with ECP plus spare-pool
// retirement. Shows how each layer extends serviceable lifetime and what
// the capacity-loss curve looks like as the device degrades.
#include <cstdint>
#include <string>

#include "analysis/report.h"
#include "common/cli.h"
#include "common/config.h"
#include "device/factory.h"
#include "obs/report.h"
#include "sim/fault_sim.h"
#include "sim/lifetime_sim.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace {

constexpr const char kUsage[] =
    "usage: fault_tolerance [flags]\n"
    "  ECP + spare-pool retirement walkthrough on one scheme.\n"
    "  --pages N       scaled device size in pages (default 1024)\n"
    "  --endurance E   mean per-page endurance (default 8192)\n"
    "  --scheme NAME   scheme to run (default TWL)\n"
    "  --ecp-k K       correctable stuck cells per page (default 6)\n"
    "  --spare-frac F  fraction of pages reserved as spares (default 0.12)\n"
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
  SimScale scale;
  scale.pages = args.get_uint_or("pages", 1024);
  scale.endurance_mean = args.get_double_or("endurance", 8192);
  scale.seed = args.get_uint_or("seed", 1);
  const Scheme scheme = parse_scheme(args.get_or("scheme", "TWL"));
  const std::uint32_t ecp_k = args.get_u32_or("ecp-k", 6);
  const double spare_frac = args.get_double_or("spare-frac", 0.12);
  ReportBuilder rep("fault_tolerance",
                    parse_report_format(args.get_or("format", "text")),
                    args.get_or("out", ""));
  // Consume the canonical device flags before the unconsumed check; the
  // ECP/spare stages reject non-PCM backends in Config::validate.
  DeviceParams device_params;
  {
    Config devcfg;
    apply_device_flag(args, devcfg);
    device_params = devcfg.device;
  }
  args.reject_unconsumed();

  rep.begin_report("Fault tolerance & graceful degradation");
  rep.raw_text(heading("Fault tolerance & graceful degradation"));
  rep.note(strfmt("scheme %s, %llu pages, mean endurance %.0f\n\n",
                  to_string(scheme).c_str(),
                  static_cast<unsigned long long>(scale.pages),
                  scale.endurance_mean));
  rep.config_entry("pages", scale.pages);
  rep.config_entry("endurance_mean", scale.endurance_mean);
  rep.config_entry("seed", scale.seed);
  rep.config_entry("scheme", to_string(scheme));
  rep.config_entry("ecp_k", ecp_k);
  rep.config_entry("spare_frac", spare_frac);

  const auto make_source = [&](std::uint64_t pages) {
    SyntheticParams wp;
    wp.pages = pages;
    wp.zipf_s = ZipfSampler::solve_exponent_for_top_fraction(pages, 0.1);
    wp.seed = scale.seed;
    return SyntheticTrace(wp);
  };
  const WriteCount cap = 1ull << 40;
  // The ECP stages' config, validated before the baseline run so that an
  // out-of-domain --ecp-k fails at once.
  Config ecp_config = Config::scaled(scale);
  ecp_config.device = device_params;
  ecp_config.fault.ecp_k = ecp_k;
  ecp_config.validate();

  // 1. Baseline: the paper's model. One dead page ends the device.
  {
    Config config = Config::scaled(scale);
    config.device = device_params;
    LifetimeSimulator sim(config);
    auto source = make_source(scale.pages);
    const auto r = sim.run(scheme, source, cap);
    rep.note("baseline (no ECP, no spares):\n");
    rep.note(strfmt("  device fails at first page death: %llu demand writes "
                    "(%s of ideal)\n\n",
                    static_cast<unsigned long long>(r.demand_writes),
                    fmt_percent(r.fraction_of_ideal, 1).c_str()));
    rep.scalar("baseline.demand_writes",
               static_cast<double>(r.demand_writes));
  }

  // 2. ECP only: each page survives its first k stuck cells, but the
  //    (k+1)-th still kills the device.
  {
    FaultSimulator sim(ecp_config);
    auto source = make_source(scale.pages);
    const auto r = sim.run(scheme, source, cap);
    rep.note(strfmt("ECP-%u only:\n", ecp_k));
    rep.note(strfmt("  first uncorrectable page at %llu demand writes "
                    "(%s of ideal)\n",
                    static_cast<unsigned long long>(r.first_failure_writes),
                    fmt_percent(r.first_failure_fraction_of_ideal, 1)
                        .c_str()));
    rep.note(strfmt("  stuck cells absorbed before that: %llu "
                    "(%llu ECP-corrected)\n\n",
                    static_cast<unsigned long long>(r.total_stuck_faults),
                    static_cast<unsigned long long>(r.ecp_corrected_faults)));
    rep.scalar("ecp_only.first_failure_writes",
               static_cast<double>(r.first_failure_writes));
  }

  // 3. ECP + spares: uncorrectable pages retire onto the spare pool and
  //    the device keeps serving until the pool runs dry.
  {
    Config config = ecp_config;
    config.fault.spare_pages = static_cast<std::uint64_t>(
        static_cast<double>(scale.pages) * spare_frac);
    // TWL pairs pool pages, so keep the scheme-visible pool even.
    if ((scale.pages - config.fault.spare_pages) % 2 != 0) {
      ++config.fault.spare_pages;
    }
    FaultSimulator sim(config);
    auto source =
        make_source(scale.pages - config.fault.spare_pages);
    const auto r = sim.run(scheme, source, cap);
    rep.note(strfmt(
        "ECP-%u + %llu spare pages:\n", ecp_k,
        static_cast<unsigned long long>(config.fault.spare_pages)));
    rep.note(strfmt("  first retirement at %llu demand writes; device %s at "
                    "%llu (%llu pages retired, %llu spares left)\n",
                    static_cast<unsigned long long>(r.first_failure_writes),
                    r.fatal ? "fatally failed" : "still serviceable",
                    static_cast<unsigned long long>(
                        r.fatal ? r.fatal_writes : r.demand_writes),
                    static_cast<unsigned long long>(r.pages_retired),
                    static_cast<unsigned long long>(r.spares_left)));
    rep.note("  capacity-loss curve (demand writes at each loss "
             "level):\n");
    for (const double frac : {0.01, 0.02, 0.05, 0.10}) {
      const auto w = r.demand_writes_to_loss(frac);
      if (w == 0) continue;
      rep.note(strfmt("    %4.0f%% lost: %llu\n", frac * 100.0,
                      static_cast<unsigned long long>(w)));
    }
    rep.scalar("ecp_spares.pages_retired",
               static_cast<double>(r.pages_retired));
  }

  rep.note(
      "\nTakeaway: ECP moves the first-failure event later; spares decouple\n"
      "one page's death from the device's. A good wear leveler still wins\n"
      "on both clocks — it delays the first retirement *and* drains the\n"
      "spare pool slowest.\n");
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
