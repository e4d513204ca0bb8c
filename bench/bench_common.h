// Shared plumbing for the bench binaries: CLI -> scaled Config, the
// banner that records the exact parameters a run used (so numbers in
// EXPERIMENTS.md are reproducible), and the SimRunner timing footer that
// gives those numbers their cost provenance.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.h"
#include "common/config.h"
#include "device/factory.h"
#include "common/sim_runner.h"
#include "analysis/report.h"
#include "obs/report.h"

namespace twl::bench {

struct BenchSetup {
  Config config;
  std::uint64_t pages;
  double endurance;
  /// Worker threads for the cell grid (--jobs; 0 was resolved to
  /// hardware_concurrency() already). 1 reproduces the serial program.
  unsigned jobs = 1;
};

/// Usage text shared by every grid bench for the runner flag.
inline constexpr const char kJobsUsage[] =
    "  --jobs N               parallel simulation cells (default: all "
    "cores; 1 = serial)\n";

/// Usage text shared by every binary for the reporting flags.
inline constexpr const char kReportUsage[] =
    "  --format F             report format: text (default), json, csv\n"
    "  --out FILE             write the report to FILE instead of stdout\n";

/// Builds the binary's ReportBuilder from --format / --out. Text format
/// (the default) streams the exact legacy bytes; json/csv emit one
/// twl-report/1 document at finish().
inline ReportBuilder make_reporter(const std::string& binary,
                                   const CliArgs& args) {
  return ReportBuilder(binary,
                       parse_report_format(args.get_or("format", "text")),
                       args.get_or("out", ""));
}

/// Flags: --pages, --endurance, --sigma, --seed, --jobs. Each bench adds
/// its own. Count-like flags reject negatives at parse time (a negative
/// --pages would otherwise wrap to a huge uint64 before Config::validate
/// could produce a sensible message).
inline BenchSetup make_setup(const CliArgs& args,
                             std::uint64_t default_pages,
                             double default_endurance) {
  SimScale scale;
  scale.pages = args.get_uint_or("pages", default_pages);
  scale.endurance_mean = args.get_double_or("endurance", default_endurance);
  scale.endurance_sigma_frac = args.get_double_or("sigma", 0.11);
  scale.seed = args.get_uint_or("seed", 20170618);
  BenchSetup setup{Config::scaled(scale), scale.pages, scale.endurance_mean,
                   /*jobs=*/1};
  apply_device_flag(args, setup.config);
  setup.jobs = SimRunner::resolve_jobs(args.get_u32_or("jobs", 0));
  return setup;
}

/// One-line backend description for the banner; empty for PCM so the
/// default banner (and every golden byte) is unchanged.
inline std::string backend_banner_line(const Config& config) {
  switch (config.device.backend) {
    case DeviceBackend::kPcm:
      return "";
    case DeviceBackend::kNor:
      return strfmt("backend:       nor-flash (%u-page erase blocks)\n\n",
                    config.device.nor.pages_per_block);
    case DeviceBackend::kHybrid:
      return strfmt(
          "backend:       hybrid (PCM + %u-page DRAM cache, %u-way)\n\n",
          config.device.hybrid.cache_pages, config.device.hybrid.ways);
  }
  return "";
}

/// The banner reports what actually ran: every value comes from
/// setup.config (the post-Config::scaled state), never from the raw
/// request, so any scaling adjustment shows up here instead of lying.
inline void print_banner(const std::string& title, const BenchSetup& setup) {
  std::printf("%s", heading(title).c_str());
  std::printf(
      "scaled device: %llu pages x %uKB, endurance mean %.0f (sigma "
      "%.0f%%), seed %llu\n"
      "real system:   32GB PCM, endurance mean 1e8 (sigma 11%%) — results\n"
      "               extrapolate via lifetime fractions (see "
      "EXPERIMENTS.md)\n\n",
      static_cast<unsigned long long>(setup.config.geometry.pages()),
      setup.config.geometry.page_bytes / 1024,
      setup.config.endurance.mean,
      setup.config.endurance.sigma_frac * 100.0,
      static_cast<unsigned long long>(setup.config.seed));
  std::printf("%s", backend_banner_line(setup.config).c_str());
}

/// Timing provenance for EXPERIMENTS.md: aggregate throughput of the
/// grid plus the serial-equivalent cost. Printed after the result
/// tables; the tables themselves are identical for any --jobs value.
inline void print_runner_footer(const RunnerReport& r) {
  std::printf(
      "\n[runner] %zu cells, %u jobs: wall %.2f s, %.2f cells/s, "
      "%.3g demand-writes/s\n"
      "[runner] serial-equivalent %.2f s (speedup %.2fx), "
      "slowest cell %.2f s\n",
      r.cells, r.jobs, r.wall_seconds, r.cells_per_second(),
      r.demand_writes_per_second(), r.cell_seconds_sum,
      r.parallel_speedup(), r.cell_seconds_max);
}

/// Reporter-based banner: records the title and scaled-device config in
/// the report AND (text mode) prints byte-identical legacy banner output.
inline void report_banner(ReportBuilder& rep, const std::string& title,
                          const BenchSetup& setup) {
  rep.begin_report(title);
  rep.raw_text(heading(title));
  rep.raw_text(strfmt(
      "scaled device: %llu pages x %uKB, endurance mean %.0f (sigma "
      "%.0f%%), seed %llu\n"
      "real system:   32GB PCM, endurance mean 1e8 (sigma 11%%) — results\n"
      "               extrapolate via lifetime fractions (see "
      "EXPERIMENTS.md)\n\n",
      static_cast<unsigned long long>(setup.config.geometry.pages()),
      setup.config.geometry.page_bytes / 1024,
      setup.config.endurance.mean,
      setup.config.endurance.sigma_frac * 100.0,
      static_cast<unsigned long long>(setup.config.seed)));
  rep.config_entry("pages", setup.config.geometry.pages());
  rep.config_entry("page_bytes", setup.config.geometry.page_bytes);
  rep.config_entry("endurance_mean", setup.config.endurance.mean);
  rep.config_entry("endurance_sigma_frac",
                   setup.config.endurance.sigma_frac);
  rep.config_entry("seed", setup.config.seed);
  rep.config_entry("jobs", setup.jobs);
  if (setup.config.device.backend != DeviceBackend::kPcm) {
    rep.raw_text(backend_banner_line(setup.config));
    rep.config_entry("device_backend",
                     to_string(setup.config.device.backend));
  }
}

/// Reporter-based runner footer: records the timing in the report AND
/// (text mode) prints the byte-identical legacy [runner] lines.
inline void report_runner_footer(ReportBuilder& rep, const RunnerReport& r) {
  rep.runner(r);
}

/// Throw on mistyped flags so sweep scripts fail loudly — run_cli_main
/// turns this into a message plus the usage text and exit code 2.
inline void check_unconsumed(const CliArgs& args) {
  args.reject_unconsumed();
}

}  // namespace twl::bench
