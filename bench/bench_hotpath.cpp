// Hot-path speed program: before/after ns/op for the end-to-end demand
// write, per scheme, and for the device's wear update.
//
//   before = per-write submit()
//   after  = submit_write_batch()
//
// The two paths must produce bit-identical physical write streams; every
// configuration's final state is digested (CRC-32 over the device wear
// array, the scheme snapshot and the controller's physical write count)
// and the binary exits non-zero if any two digests disagree — the CI
// hotpath job runs this in Release and diffs the committed
// BENCH_hotpath.json rows against the acceptance bar.
//
// The stage bench isolates the one device-side change the end-to-end row
// aggregates:
//   wear_update  write()+worn_out() double lookup vs write_became_worn()
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/checksum.h"
#include "common/cli.h"
#include "common/config.h"
#include "common/rng.h"
#include "pcm/device.h"
#include "pcm/endurance.h"
#include "recovery/journal.h"
#include "recovery/snapshot.h"
#include "sim/memory_controller.h"
#include "wl/factory.h"

namespace twl {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keep a computed value alive without letting the optimizer delete the
// loop that produced it.
volatile std::uint64_t g_sink = 0;

/// Backend selection from --device, applied to every config this binary
/// builds (single-threaded main, set once before any bench runs).
DeviceParams g_device{};

Config bench_config(std::uint64_t pages, std::uint64_t seed) {
  SimScale scale;
  scale.pages = pages;
  scale.endurance_mean = 1e12;  // Never fails during the benchmark.
  scale.seed = seed;
  Config config = Config::scaled(scale);
  config.device = g_device;
  return config;
}

/// Demand-write address stream with locality: 3 of 4
/// writes hit a small hot set, the rest are uniform — the skew every
/// wear-leveling paper assumes (it is what makes leveling necessary).
std::vector<LogicalPageAddr> make_stream(std::uint64_t pages,
                                         std::uint64_t count,
                                         std::uint64_t seed) {
  XorShift64Star rng(seed);
  const std::uint64_t hot = pages < 32 ? pages : pages / 8;
  std::vector<LogicalPageAddr> las;
  las.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t space = (rng.next() & 3) != 0 ? hot : pages;
    las.emplace_back(static_cast<std::uint32_t>(rng.next_below(space)));
  }
  return las;
}

std::uint32_t crc_u64(std::uint64_t v, std::uint32_t seed) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return crc32(b, 8, seed);
}

/// Digest of everything the hot path is allowed to change: per-page wear,
/// the scheme's serialized metadata and the physical write count. Batch
/// and single submission must agree byte for byte.
std::uint32_t state_digest(const MemoryController& mc) {
  std::uint32_t c = 0;
  const Device& dev = mc.device();
  for (std::uint64_t pa = 0; pa < dev.pages(); ++pa) {
    c = crc_u64(dev.writes(PhysicalPageAddr(static_cast<std::uint32_t>(pa))),
                c);
  }
  const std::vector<std::uint8_t> blob = take_snapshot(mc.wear_leveler());
  c = crc32(blob.data(), blob.size(), c);
  return crc_u64(mc.stats().physical_writes(), c);
}

struct EndToEndResult {
  double ns_per_write = 0.0;
  std::uint64_t journal_bytes = 0;
  std::uint32_t digest = 0;
};

EndToEndResult run_end_to_end(const std::string& spec,
                              const std::vector<LogicalPageAddr>& las,
                              std::uint64_t pages, std::uint64_t seed,
                              bool batch_on, unsigned reps) {
  EndToEndResult result;
  double best = 0.0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    const Config config = bench_config(pages, seed);
    const EnduranceMap map(pages, config.endurance, config.seed);
    const auto device = make_latch_device(map, config);
    const auto wl = make_wear_leveler_spec(spec, map, config);
    MemoryController mc(*device, *wl, config, /*enable_timing=*/false);
    MetadataJournal journal;
    mc.attach_journal(&journal);

    const auto t0 = Clock::now();
    if (batch_on) {
      mc.submit_write_batch(las.data(), las.size(), 0);
    } else {
      for (const LogicalPageAddr la : las) {
        mc.submit(MemoryRequest{Op::kWrite, la}, 0);
      }
    }
    const double elapsed = seconds_since(t0);

    if (rep == 0 || elapsed < best) best = elapsed;
    result.journal_bytes = journal.total_bytes_appended();
    result.digest = state_digest(mc);
  }
  result.ns_per_write = best * 1e9 / static_cast<double>(las.size());
  return result;
}

double time_wear_update(std::uint64_t pages, std::uint64_t seed,
                        bool single_lookup, unsigned reps,
                        std::uint64_t touches) {
  const Config config = bench_config(pages, seed);
  const EnduranceMap map(pages, config.endurance, config.seed);
  std::vector<PhysicalPageAddr> pas;
  pas.reserve(touches);
  XorShift64Star rng(seed + 1);
  for (std::uint64_t i = 0; i < touches; ++i) {
    pas.emplace_back(static_cast<std::uint32_t>(rng.next_below(pages)));
  }
  double best = 0.0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    PcmDevice device(map);
    std::uint64_t worn = 0;
    const auto t0 = Clock::now();
    if (single_lookup) {
      for (const PhysicalPageAddr pa : pas) {
        worn += device.write_became_worn(pa) ? 1 : 0;
      }
    } else {
      // The pre-audit shape: write, then re-derive worn-ness with a
      // second endurance lookup.
      for (const PhysicalPageAddr pa : pas) {
        device.write(pa);
        worn += device.worn_out(pa) ? 1 : 0;
      }
    }
    const double elapsed = seconds_since(t0);
    g_sink = worn;
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best * 1e9 / static_cast<double>(touches);
}

void stage_row(TextTable& stages, const std::string& stage,
               const std::string& scheme, double before, double after) {
  stages.add_row({stage, scheme, fmt_double(before, 2), fmt_double(after, 2),
                  fmt_double(after > 0.0 ? before / after : 0.0, 2) + "x"});
}

std::string hex_digest(std::uint32_t d) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08x", d);
  return std::string(buf);
}

int bench_main(const CliArgs& args) {
  const std::uint64_t pages = args.get_uint_or("pages", 4096);
  {
    Config devcfg;
    apply_device_flag(args, devcfg);
    g_device = devcfg.device;
  }
  const std::uint64_t writes = args.get_uint_or("writes", 200000);
  const std::uint64_t seed = args.get_uint_or("seed", 20170618);
  const unsigned reps = args.get_u32_or("reps", 5);
  const std::string schemes_flag =
      args.get_or("schemes", "StartGap,SR,RBSG,TWL");
  // Restrict the end-to-end grid for A/B digest comparisons in CI:
  // --batch runs one side instead of both (the stage bench is skipped;
  // only the grid rows are emitted).
  const int pin_batch =
      args.has("batch") ? (args.get_bool_or("batch", true) ? 1 : 0) : -1;
  const bool pinned = pin_batch >= 0;
  ReportBuilder rep = bench::make_reporter("bench_hotpath", args);
  args.reject_unconsumed();

  std::vector<std::string> schemes;
  for (std::size_t at = 0; at < schemes_flag.size();) {
    const std::size_t comma = schemes_flag.find(',', at);
    const std::size_t end =
        comma == std::string::npos ? schemes_flag.size() : comma;
    if (end > at) schemes.push_back(schemes_flag.substr(at, end - at));
    at = end + 1;
  }

  rep.begin_report("Hot-path speed program: single vs batch submit");
  rep.config_entry("pages", pages);
  rep.config_entry("writes", writes);
  rep.config_entry("seed", seed);
  rep.config_entry("reps", static_cast<std::uint64_t>(reps));
  rep.config_entry("schemes", schemes_flag);
  if (pin_batch >= 0) rep.config_entry("pin_batch", pin_batch != 0);

  // before = per-write submit; after = batch.
  TextTable stages;
  stages.add_row({"stage", "scheme", "before ns/op", "after ns/op",
                  "speedup"});
  if (!pinned) {
    stage_row(stages, "wear_update", "-",
              time_wear_update(pages, seed, false, reps, writes),
              time_wear_update(pages, seed, true, reps, writes));
  }

  TextTable grid_table;
  grid_table.add_row({"scheme", "batch", "ns/write", "journal bytes",
                      "digest"});
  bool digests_ok = true;
  bool bar_met = true;
  for (const std::string& spec : schemes) {
    // Streams index the scheme's logical space, which is smaller than the
    // physical device (Start-Gap spends one frame on the gap, RBSG one
    // per region).
    const std::uint64_t space = [&] {
      const Config config = bench_config(pages, seed);
      const EnduranceMap map(pages, config.endurance, config.seed);
      return make_wear_leveler_spec(spec, map, config)->logical_pages();
    }();
    const std::vector<LogicalPageAddr> las = make_stream(space, writes, seed);

    // End-to-end grid: single vs batch.
    EndToEndResult grid[2];
    std::uint32_t reference_digest = 0;
    bool have_reference = false;
    for (int batch = 0; batch < 2; ++batch) {
      if (pin_batch >= 0 && batch != pin_batch) continue;
      grid[batch] = run_end_to_end(spec, las, pages, seed, batch != 0, reps);
      const EndToEndResult& r = grid[batch];
      if (!have_reference) {
        reference_digest = r.digest;
        have_reference = true;
      }
      digests_ok = digests_ok && r.digest == reference_digest;
      grid_table.add_row({spec, batch != 0 ? "on" : "off",
                          fmt_double(r.ns_per_write, 2),
                          std::to_string(r.journal_bytes),
                          hex_digest(r.digest)});
    }

    if (!pinned) {
      const EndToEndResult& before = grid[0];
      const EndToEndResult& after = grid[1];
      stage_row(stages, "end_to_end_write", spec, before.ns_per_write,
                after.ns_per_write);
      if ((spec == "StartGap" || spec == "SR") &&
          before.ns_per_write < 2.0 * after.ns_per_write) {
        bar_met = false;
      }
    }
  }

  if (stages.rows() > 1) rep.table("stages", stages);
  rep.table("end_to_end", grid_table);
  // Scalar acceptance gates (1 = pass) so CI can assert on the report.
  rep.scalar("digest_match", digests_ok ? 1.0 : 0.0);
  if (!pinned) rep.scalar("speedup_bar_2x_met", bar_met ? 1.0 : 0.0);
  rep.finish();

  if (!digests_ok) {
    std::fprintf(stderr,
                 "FAIL: physical write streams diverged across hot-path "
                 "configurations\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace twl

int main(int argc, const char** argv) {
  return twl::run_cli_main(
      argc, argv,
      "bench_hotpath: before/after ns/op for the controller write hot "
      "path\n"
      "  --pages N              device pages (default 4096)\n"
      "  --writes N             demand writes per end-to-end run (default "
      "200000)\n"
      "  --seed N               RNG seed (default 20170618)\n"
      "  --reps N               timing repetitions, best-of (default 5)\n"
      "  --schemes A,B,...      scheme specs (default StartGap,SR,RBSG,TWL)\n"
      "  --batch B              run one side of the batch axis (A/B mode)\n"
      + std::string(twl::kDeviceUsage)
      + std::string(twl::bench::kReportUsage),
      twl::bench_main);
}
