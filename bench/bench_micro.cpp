// Per-operation microbenchmarks (google-benchmark): the simulation-side
// cost of each scheme's write path, the RNGs, request generation, the
// table primitives and the recovery journal. These bound how large a
// lifetime experiment is practical.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "pcm/device.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "sim/memory_controller.h"
#include "tables/remapping_table.h"
#include "trace/parsec_model.h"
#include "trace/synthetic.h"
#include "trace/zipf.h"
#include "wl/factory.h"

namespace {

using namespace twl;

Config bench_config(std::uint64_t pages) {
  SimScale scale;
  scale.pages = pages;
  scale.endurance_mean = 1e12;  // Never fails during the benchmark.
  return Config::scaled(scale);
}

void BM_SchemeWrite(benchmark::State& state, Scheme scheme) {
  const std::uint64_t pages = 4096;
  const Config config = bench_config(pages);
  const EnduranceMap map(pages, config.endurance, config.seed);
  PcmDevice device(map);
  const auto wl = make_wear_leveler(scheme, map, config);
  MemoryController mc(device, *wl, config, /*enable_timing=*/false);
  XorShift64Star rng(1);
  const std::uint64_t space = wl->logical_pages();
  for (auto _ : state) {
    const MemoryRequest req{
        Op::kWrite,
        LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(space)))};
    mc.submit(req, 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SchemeWriteTimed(benchmark::State& state, Scheme scheme) {
  const std::uint64_t pages = 4096;
  const Config config = bench_config(pages);
  const EnduranceMap map(pages, config.endurance, config.seed);
  PcmDevice device(map);
  const auto wl = make_wear_leveler(scheme, map, config);
  MemoryController mc(device, *wl, config, /*enable_timing=*/true);
  XorShift64Star rng(1);
  Cycles now = 0;
  const std::uint64_t space = wl->logical_pages();
  for (auto _ : state) {
    const MemoryRequest req{
        Op::kWrite,
        LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(space)))};
    now += mc.submit(req, now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Feistel8(benchmark::State& state) {
  Feistel8 f(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.next_alpha());
  }
}

void BM_XorShift(benchmark::State& state) {
  XorShift64Star rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}

/// The floor under one canneal write: the serial xorshift64* chain its
/// draws take, 7.25 steps per write (2.5 requests per write at read_frac
/// 0.6, 2.9 draws per request), so 29 steps per 4 items.
void BM_XorShiftChain(benchmark::State& state) {
  XorShift64Star rng(1);
  for (auto _ : state) {
    std::uint64_t x = 0;
    for (int i = 0; i < 29; ++i) x ^= rng.next();
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 4));
}

/// One Zipf draw over range(0) ranks at exponent `s`.
void BM_ZipfSample(benchmark::State& state, double s) {
  ZipfSampler z(static_cast<std::uint64_t>(state.range(0)), s);
  XorShift64Star rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
}

/// The canneal model over 256 pages, the request stream of perfbench's
/// `lifetime`. Items are writes; reads (60%) are drawn and dropped.
std::unique_ptr<SyntheticTrace> canneal_source() {
  return parsec_benchmark("canneal").make_source(256, 1);
}

/// The next write found by calling next() and dropping reads.
void BM_SyntheticNextFiltered(benchmark::State& state) {
  const auto source = canneal_source();
  for (auto _ : state) {
    MemoryRequest req = source->next();
    while (req.op != Op::kWrite) req = source->next();
    benchmark::DoNotOptimize(req);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Writes drawn through next_write() from the source `make` builds.
void BM_NextWriteOf(benchmark::State& state,
                    std::unique_ptr<SyntheticTrace> (*make)()) {
  const auto source = make();
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->next_write());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// The same writes through next_write(), which maps no read to a page.
void BM_SyntheticNextWrite(benchmark::State& state) {
  BM_NextWriteOf(state, canneal_source);
}

/// The stream FleetStream, the service clients and the crash simulator
/// draw: canneal's model over 256 pages with no reads.
std::unique_ptr<SyntheticTrace> fleet_source() {
  SyntheticParams p = canneal_source()->params();
  p.read_frac = 0.0;
  return std::make_unique<SyntheticTrace>(p, "fleet");
}

/// Canneal over 65536 pages: Zipf tables far larger than the L1 cache.
std::unique_ptr<SyntheticTrace> canneal_large_source() {
  return parsec_benchmark("canneal").make_source(65536, 1);
}

/// Vips, a streaming-heavy model (stream_frac 0.4), over 256 pages.
std::unique_ptr<SyntheticTrace> vips_source() {
  return parsec_benchmark("vips").make_source(256, 1);
}

void BM_RemappingSwap(benchmark::State& state) {
  RemappingTable rt(4096);
  XorShift64Star rng(1);
  for (auto _ : state) {
    rt.swap_logical(
        LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(4096))),
        LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(4096))));
  }
}

/// Log size at which the journal benchmarks truncate, as a snapshot
/// rotation would: the log stays cache-resident and bounded.
constexpr std::size_t kJournalWindowBytes = 1 << 16;

/// The single-write bracket the controller appends around every
/// journaled demand write.
void BM_JournalWritePair(benchmark::State& state) {
  MetadataJournal journal;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    journal.append_write_begin(
        seq, LogicalPageAddr(static_cast<std::uint32_t>(seq % 4096)));
    journal.append_write_commit(seq);
    ++seq;
    benchmark::DoNotOptimize(journal.bytes().data());
    benchmark::ClobberMemory();
    if (journal.bytes().size() >= kJournalWindowBytes) journal.truncate();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// One BatchBegin + BatchCommit bracket of range(0) writes; items are
/// demand writes.
void BM_JournalBatch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<LogicalPageAddr> las;
  for (std::size_t i = 0; i < count; ++i) {
    las.emplace_back(static_cast<std::uint32_t>(i * 97 % 4096));
  }
  MetadataJournal journal;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    journal.append_batch_begin(seq, las.data(), count);
    journal.append_batch_commit(seq, count);
    seq += count;
    benchmark::DoNotOptimize(journal.bytes().data());
    benchmark::ClobberMemory();
    if (journal.bytes().size() >= kJournalWindowBytes) journal.truncate();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
}

/// recover(): restore a pristine TWL snapshot, then scan and replay a
/// journal of range(0) committed controller writes (swap brackets
/// included); items are replayed writes.
void BM_Recover(benchmark::State& state) {
  const std::uint64_t pages = 4096;
  const auto writes = static_cast<std::uint64_t>(state.range(0));
  const Config config = bench_config(pages);
  const EnduranceMap map(pages, config.endurance, config.seed);
  PcmDevice device(map);
  const auto wl = make_wear_leveler(Scheme::kTossUpStrongWeak, map, config);
  const std::vector<std::uint8_t> snapshot = take_snapshot(*wl);
  MetadataJournal journal;
  MemoryController mc(device, *wl, config, /*enable_timing=*/false);
  mc.attach_journal(&journal);
  XorShift64Star rng(1);
  for (std::uint64_t i = 0; i < writes; ++i) {
    const MemoryRequest req{
        Op::kWrite, LogicalPageAddr(static_cast<std::uint32_t>(
                        rng.next_below(wl->logical_pages())))};
    mc.submit(req, 0);
  }
  const auto fresh =
      make_wear_leveler(Scheme::kTossUpStrongWeak, map, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recover(*fresh, snapshot, journal.bytes()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * writes));
}

}  // namespace

BENCHMARK_CAPTURE(BM_SchemeWrite, NOWL, Scheme::kNoWl);
BENCHMARK_CAPTURE(BM_SchemeWrite, StartGap, Scheme::kStartGap);
BENCHMARK_CAPTURE(BM_SchemeWrite, SR, Scheme::kSecurityRefresh);
BENCHMARK_CAPTURE(BM_SchemeWrite, WRL, Scheme::kWearRateLeveling);
BENCHMARK_CAPTURE(BM_SchemeWrite, BWL, Scheme::kBloomWl);
BENCHMARK_CAPTURE(BM_SchemeWrite, TWL, Scheme::kTossUpStrongWeak);
BENCHMARK_CAPTURE(BM_SchemeWriteTimed, NOWL, Scheme::kNoWl);
BENCHMARK_CAPTURE(BM_SchemeWriteTimed, TWL, Scheme::kTossUpStrongWeak);
BENCHMARK(BM_Feistel8);
BENCHMARK(BM_XorShift);
BENCHMARK(BM_XorShiftChain);
BENCHMARK_CAPTURE(BM_ZipfSample, s1, 1.0)->Arg(1024)->Arg(65536);
// The canneal model's exponent at 256 pages.
BENCHMARK_CAPTURE(BM_ZipfSample, canneal, 1.1986)->Arg(256);
BENCHMARK(BM_SyntheticNextFiltered);
BENCHMARK(BM_SyntheticNextWrite);
BENCHMARK_CAPTURE(BM_NextWriteOf, fleet, fleet_source);
BENCHMARK_CAPTURE(BM_NextWriteOf, canneal65536, canneal_large_source);
BENCHMARK_CAPTURE(BM_NextWriteOf, vips, vips_source);
BENCHMARK(BM_RemappingSwap);
BENCHMARK(BM_JournalWritePair);
BENCHMARK(BM_JournalBatch)->Arg(1)->Arg(16)->Arg(32);
BENCHMARK(BM_Recover)->Arg(256)->Arg(4096);

BENCHMARK_MAIN();
