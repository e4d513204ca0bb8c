// Trace recording and replay: generate a workload, record it to a trace
// file, then replay the file against two schemes — the workflow for
// evaluating wear leveling on real captured traces (the paper's gem5
// methodology, minus gem5).
//
//   ./trace_replay [--pages N] [--endurance E] [--trace PATH]
#include "device/factory.h"
#include "analysis/report.h"
#include "common/cli.h"
#include "obs/report.h"
#include "sim/lifetime_sim.h"
#include "trace/parsec_model.h"
#include "trace/trace_file.h"
#include "wl/factory.h"

namespace {

constexpr const char kUsage[] =
    "usage: trace_replay [flags]\n"
    "  Replaying an address trace file.\n"
    "  --pages N       scaled device size in pages (default 512)\n"
    "  --endurance E   mean per-page endurance\n"
    "  --trace PATH    trace file to replay (plain-text addresses)\n"
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
  scale.pages = args.get_uint_or("pages", 512);
  scale.endurance_mean = args.get_double_or("endurance", 4096);
  scale.seed = args.get_uint_or("seed", scale.seed);
  const std::string path = args.get_or("trace", "/tmp/twl_demo.trc");
  Config config = Config::scaled(scale);
  apply_device_flag(args, config);

  ReportBuilder rep("trace_replay",
                    parse_report_format(args.get_or("format", "text")),
                    args.get_or("out", ""));
  rep.begin_report("Trace record & replay");
  rep.raw_text(heading("Trace record & replay"));
  rep.config_entry("pages", scale.pages);
  rep.config_entry("endurance_mean", scale.endurance_mean);
  rep.config_entry("seed", scale.seed);
  rep.config_entry("trace", path);

  // 1. Record a slice of the canneal model to a trace file.
  {
    RecordingSource recorder(
        parsec_benchmark("canneal").make_source(scale.pages, config.seed),
        path);
    for (int i = 0; i < 200000; ++i) (void)recorder.next();
  }
  rep.note(strfmt("recorded 200000 canneal-model requests to %s\n\n",
                  path.c_str()));

  // 2. Replay the identical trace (looped, as the paper replays its gem5
  //    traces) under two schemes and compare lifetimes.
  LifetimeSimulator sim(config);
  for (const char* scheme : {"NOWL", "TWL"}) {
    TraceFileSource replay(path);
    const auto result = sim.run(parse_scheme(scheme), replay,
                                WriteCount{1} << 40);
    rep.note(strfmt(
        "%-5s survived %9llu demand writes (%.1f%% of ideal), trace looped "
        "%llu times\n",
        scheme,
        static_cast<unsigned long long>(result.demand_writes),
        result.fraction_of_ideal * 100.0,
        static_cast<unsigned long long>(replay.loops())));
    rep.scalar(std::string(scheme) + ".fraction_of_ideal",
               result.fraction_of_ideal);
  }
  rep.note(
      "\nAny trace in the simple text format ('W <page>' / 'R <page>')\n"
      "can be replayed this way — see trace/trace_file.h.\n");
  rep.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
