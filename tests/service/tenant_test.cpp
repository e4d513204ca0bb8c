// Multi-tenant service front-end: the tenant directory carve and wire
// format, the deterministic token-bucket quota, the blend -> workload
// mapping, and the engine-level claims — exact per-tenant terminal
// books through chaos for every overflow x quota combination, DRR
// fairness against a hammering tenant, journal amortization from
// batched drains, and the single-tenant default keeping its pre-tenant
// report shape.
#include "service/tenant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/config.h"
#include "common/sim_runner.h"
#include "recovery/snapshot.h"
#include "service/service.h"

namespace twl {
namespace {

Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 1e6;
  return Config::scaled(scale);
}

// ---------------------------------------------------------------------------
// TenantDirectory.

TEST(TenantDirectory, CarvesEvenlyAndTranslatesWithinSpans) {
  const TenantDirectory dir =
      TenantDirectory::carve(64, 4, std::vector<std::uint64_t>(3, 0));
  EXPECT_EQ(dir.tenant_count(), 3u);
  EXPECT_EQ(dir.shards(), 4u);
  EXPECT_EQ(dir.local_pages(), 64u);
  // 64 / 3 = 21 per tenant; the leftover page stays unassigned.
  for (TenantId t = 0; t < 3; ++t) {
    EXPECT_EQ(dir.span(t), 21u) << "tenant " << t;
    EXPECT_EQ(dir.tenant_pages(t), 21u * 4) << "tenant " << t;
  }
  // Spans are disjoint and contiguous.
  EXPECT_EQ(dir.base(0), 0u);
  EXPECT_EQ(dir.base(1), 21u);
  EXPECT_EQ(dir.base(2), 42u);

  // Every tenant-scoped page lands on a valid shard, inside the
  // tenant's own span — a tenant cannot name another tenant's pages.
  for (TenantId t = 0; t < 3; ++t) {
    for (std::uint32_t la = 0; la < dir.tenant_pages(t); ++la) {
      for (const ShardingPolicy policy :
           {ShardingPolicy::kHashLa, ShardingPolicy::kModuloLa}) {
        const auto [shard, local] = dir.translate(t, la, policy);
        EXPECT_LT(shard, dir.shards());
        EXPECT_GE(local, dir.base(t));
        EXPECT_LT(local, dir.base(t) + dir.span(t));
      }
    }
  }
}

TEST(TenantDirectory, HonorsExplicitBudgetsAndSplitsTheRemainder) {
  const TenantDirectory dir =
      TenantDirectory::carve(64, 2, std::vector<std::uint64_t>{8, 0, 0});
  EXPECT_EQ(dir.span(0), 8u);   // Exact budget.
  EXPECT_EQ(dir.span(1), 28u);  // (64 - 8) / 2 each.
  EXPECT_EQ(dir.span(2), 28u);
  EXPECT_EQ(dir.base(1), 8u);
  EXPECT_EQ(dir.base(2), 36u);
}

TEST(TenantDirectory, RejectsOversubscriptionAndZeroSpans) {
  // Budgets exceeding the local space.
  EXPECT_THROW(
      (void)TenantDirectory::carve(64, 4, std::vector<std::uint64_t>{65}),
      std::invalid_argument);
  EXPECT_THROW((void)TenantDirectory::carve(
                   64, 4, std::vector<std::uint64_t>{60, 5, 0}),
               std::invalid_argument);
  // Budgets whose sum wraps 64 bits still oversubscribe.
  EXPECT_THROW((void)TenantDirectory::carve(
                   64, 4, std::vector<std::uint64_t>(2, std::uint64_t{1} << 63)),
               std::invalid_argument);
  // More tenants than pages: somebody ends up with zero.
  EXPECT_THROW(
      (void)TenantDirectory::carve(2, 4, std::vector<std::uint64_t>(3, 0)),
      std::invalid_argument);
}

TEST(TenantDirectory, WireFormatRoundTripsAndDetectsDamage) {
  const TenantDirectory dir =
      TenantDirectory::carve(64, 4, std::vector<std::uint64_t>{8, 0, 0, 0});
  const std::vector<std::uint8_t> blob = dir.serialize();
  EXPECT_EQ(TenantDirectory::deserialize(blob), dir);

  // Truncation at any point is detected, not misread.
  std::vector<std::uint8_t> cut = blob;
  cut.pop_back();
  EXPECT_THROW((void)TenantDirectory::deserialize(cut), SnapshotError);

  // A single flipped byte anywhere trips the CRC seal (or the magic /
  // version checks when it lands in the header).
  for (const std::size_t at :
       {std::size_t{0}, blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> bad = blob;
    bad[at] ^= 0x40;
    EXPECT_THROW((void)TenantDirectory::deserialize(bad), SnapshotError)
        << "flip at byte " << at;
  }

  // A CRC-valid blob whose spans {2^63, 2^63} sum past 2^64 overlaps
  // tenant 1 with tenant 0 once the sum wraps, so it must not load.
  SnapshotWriter body;
  body.put_u32(0x54445231u);  // 'TDR1'
  body.put_u16(1);
  body.put_u32(4);
  body.put_u64(~std::uint64_t{0});
  body.put_u64_vec({0, std::uint64_t{1} << 63});
  body.put_u64_vec({std::uint64_t{1} << 63, std::uint64_t{1} << 63});
  SnapshotWriter sealed;
  for (const std::uint8_t b : body.bytes()) sealed.put_u8(b);
  sealed.put_u32(crc32(body.bytes().data(), body.bytes().size()));
  EXPECT_THROW((void)TenantDirectory::deserialize(sealed.take()),
               SnapshotError);
}

// ---------------------------------------------------------------------------
// TokenBucket.

TEST(TokenBucket, IntegerRefillIsExactAndCapped) {
  TokenBucket b(/*rate_per_kcycle=*/2, /*burst=*/4);
  // Starts full.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.try_take(0)) << i;
  EXPECT_FALSE(b.try_take(0));
  // 2 tokens per 1000 cycles: 500 cycles buys exactly one.
  EXPECT_FALSE(b.try_take(499));
  EXPECT_TRUE(b.try_take(500));
  EXPECT_FALSE(b.try_take(500));
  // Sub-token carry accumulates with no loss: 250-cycle steps.
  EXPECT_FALSE(b.try_take(750));
  EXPECT_TRUE(b.try_take(1000));
  // A long idle stretch refills to the burst cap, not beyond.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.try_take(1'000'000)) << i;
  EXPECT_FALSE(b.try_take(1'000'000));

  // Credit past 64 bits is not lost to wraparound: the bucket equals one
  // computed in unbounded integers. 4 cycles at 2^62 per 1000 cycles is
  // 2^64 / 1000 tokens, so every take refills the single-token burst.
  TokenBucket fast(/*rate_per_kcycle=*/std::uint64_t{1} << 62, /*burst=*/1);
  for (const Cycles t : {0, 4, 8}) {
    EXPECT_TRUE(fast.try_take(t)) << "t = " << t;
  }
  // One idle gap of 2^60 cycles at 1024 per 1000 refills a spent burst.
  TokenBucket idle(/*rate_per_kcycle=*/1024, /*burst=*/2);
  EXPECT_TRUE(idle.try_take(0));
  EXPECT_TRUE(idle.try_take(0));
  EXPECT_FALSE(idle.try_take(0));
  EXPECT_TRUE(idle.try_take(Cycles{1} << 60));
  EXPECT_EQ(idle.tokens(), 1u);
}

TEST(TokenBucket, RateZeroIsUnlimited) {
  TokenBucket b(/*rate_per_kcycle=*/0, /*burst=*/1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.try_take(0));
}

// ---------------------------------------------------------------------------
// Blends.

TEST(TenantBlend, ParsesNamesAndRejectsUnknownOnesListingTheValidSet) {
  EXPECT_EQ(parse_tenant_blend("uniform"), TenantBlend::kUniform);
  EXPECT_EQ(parse_tenant_blend("hostile"), TenantBlend::kHostile);
  EXPECT_EQ(parse_tenant_blend("hammer"), TenantBlend::kHammer);
  // Printing round-trips through the parser (reports print the blend).
  for (const char* name : {"uniform", "hostile", "hammer"}) {
    EXPECT_EQ(to_string(parse_tenant_blend(name)), name);
  }
  try {
    (void)parse_tenant_blend("zipfish");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("zipfish"), std::string::npos) << msg;
    EXPECT_NE(msg.find(valid_tenant_blend_names()), std::string::npos)
        << msg;
  }
}

TEST(TenantBlend, MapsTenantsOntoWorkloadKinds) {
  FleetWorkload base;
  base.kind = WorkloadKind::kZipf;
  base.zipf_s = 1.2;

  // Uniform: everybody runs the base workload.
  EXPECT_EQ(blend_workload(TenantBlend::kUniform, 0, base).kind,
            WorkloadKind::kZipf);
  EXPECT_EQ(blend_workload(TenantBlend::kUniform, 5, base).kind,
            WorkloadKind::kZipf);
  // Hostile: tenant 0 mounts the inconsistent-write attack, the rest
  // run zipf background traffic with the base skew preserved.
  EXPECT_EQ(blend_workload(TenantBlend::kHostile, 0, base).kind,
            WorkloadKind::kInconsistentAttack);
  const FleetWorkload bg = blend_workload(TenantBlend::kHostile, 3, base);
  EXPECT_EQ(bg.kind, WorkloadKind::kZipf);
  EXPECT_DOUBLE_EQ(bg.zipf_s, 1.2);
  // Hammer: tenant 0 pounds a tiny repeat set.
  EXPECT_EQ(blend_workload(TenantBlend::kHammer, 0, base).kind,
            WorkloadKind::kRepeat);
  EXPECT_EQ(blend_workload(TenantBlend::kHammer, 1, base).kind,
            WorkloadKind::kZipf);
}

// ---------------------------------------------------------------------------
// Engine-level claims.

ServiceConfig tenant_service(std::uint32_t tenants) {
  ServiceConfig s;
  s.shards = 4;
  s.clients = tenants;  // One client per tenant.
  s.requests_per_client = 2000;
  s.queue_capacity = 32;
  s.overflow = OverflowPolicy::kBlock;
  s.mean_gap_cycles = 900;
  s.tenancy.tenants = tenants;
  s.tenancy.blend = TenantBlend::kHostile;
  return s;
}

void expect_books_exact(const ServiceRunResult& r, std::uint32_t tenants) {
  EXPECT_TRUE(r.totals.accounting_exact());
  ASSERT_EQ(r.tenants.size(), tenants);
  std::uint64_t submitted = 0;
  for (const TenantReport& t : r.tenants) {
    EXPECT_TRUE(t.totals.accounting_exact()) << "tenant " << t.tenant;
    submitted += t.totals.submitted;
  }
  EXPECT_EQ(submitted, r.totals.submitted)
      << "tenant books must partition the aggregate";
  for (const ShardReport& s : r.shards) {
    EXPECT_TRUE(s.totals.accounting_exact()) << "shard " << s.shard;
    for (const TenantReport& t : s.tenants) {
      EXPECT_TRUE(t.totals.accounting_exact())
          << "shard " << s.shard << " tenant " << t.tenant;
    }
  }
}

// The headline claim: per-tenant terminal books stay exact through
// crash/corruption chaos — crashes mid-batch, recovery, re-admission —
// for every overflow policy x quota combination, and the whole run is
// byte-identical across --jobs levels. A 7-write snapshot interval adds
// snapshot rotations inside batched drains.
TEST(TenantEngine, BooksStayExactThroughChaosForEveryPolicyCombination) {
  const Config config = small_config();
  struct Combo {
    OverflowPolicy overflow;
    std::uint64_t quota_rate;
    std::uint64_t snapshot_interval;
  };
  const ServiceConfig defaults;
  const std::uint64_t every = defaults.snapshot_interval_writes;
  for (const Combo& combo :
       {Combo{OverflowPolicy::kBlock, 0, every},
        Combo{OverflowPolicy::kBlock, 5, every},
        Combo{OverflowPolicy::kShed, 0, every},
        Combo{OverflowPolicy::kShed, 5, every},
        Combo{OverflowPolicy::kBlock, 0, 7}}) {
    ServiceConfig s = tenant_service(3);
    s.overflow = combo.overflow;
    s.tenancy.quota_rate = combo.quota_rate;
    s.snapshot_interval_writes = combo.snapshot_interval;
    s.chaos.mean_interval_writes = 64;
    s.chaos.corruption = true;
    s.verify_final_state = true;
    const ServiceFrontEnd fe(config, s);

    SimRunner serial(1);
    const ServiceRunResult r = fe.run_virtual(serial);
    SimRunner parallel(3);
    const ServiceRunResult r3 = fe.run_virtual(parallel);
    const std::string label =
        std::string(combo.overflow == OverflowPolicy::kBlock ? "block"
                                                             : "shed") +
        "/quota=" + std::to_string(combo.quota_rate) +
        "/snapshot=" + std::to_string(combo.snapshot_interval);
    EXPECT_TRUE(r == r3) << label << ": --jobs 1 vs 3 diverged";

    expect_books_exact(r, 3);
    EXPECT_EQ(r.totals.submitted, 3u * 2000u) << label;
    EXPECT_GT(r.chaos_totals.crashes, 0u) << label;
    EXPECT_EQ(r.chaos_totals.recoveries, r.chaos_totals.crashes) << label;
    EXPECT_EQ(r.chaos_totals.invariant_failures, 0u) << label;
    for (const ShardReport& shard : r.shards) {
      EXPECT_TRUE(shard.history_verified)
          << label << ": accepted-write loss on shard " << shard.shard;
      EXPECT_TRUE(shard.directory_verified)
          << label << ": directory damaged on shard " << shard.shard;
    }
  }
}

TEST(TenantEngine, QuotaRejectionsAreTerminalAndAccountedDistinctly) {
  const Config config = small_config();
  ServiceConfig s = tenant_service(2);
  s.tenancy.blend = TenantBlend::kUniform;
  s.tenancy.quota_rate = 1;  // 1 write per 1000 cycles per shard...
  s.tenancy.quota_burst = 4;
  s.mean_gap_cycles = 200;  // ...against a much faster arrival rate.
  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);

  expect_books_exact(r, 2);
  EXPECT_GT(r.totals.quota_shed, 0u);
  for (const TenantReport& t : r.tenants) {
    EXPECT_GT(t.totals.quota_shed, 0u) << "tenant " << t.tenant;
  }
  // quota_shed is its own book entry and its own counter, never folded
  // into the back-pressure sheds.
  const Counter* c = r.metrics.find_counter("service.quota_shed");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), r.totals.quota_shed);
  const Counter* t0 =
      r.metrics.find_counter("service.tenant.0.quota_shed");
  ASSERT_NE(t0, nullptr);
  EXPECT_EQ(t0->value(), r.tenants[0].totals.quota_shed);
}

// Deficit round robin: a tenant hammering the queues cannot starve the
// background tenants — with equal offered load every tenant's accepted
// share stays within a small factor of the others'.
TEST(TenantEngine, DrrKeepsBackgroundTenantsServedUnderHammer) {
  const Config config = small_config();
  ServiceConfig s = tenant_service(4);
  s.tenancy.blend = TenantBlend::kHammer;
  s.overflow = OverflowPolicy::kShed;
  s.queue_capacity = 16;
  s.mean_gap_cycles = 0;  // Closed loop: sustained over-subscription.
  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);

  expect_books_exact(r, 4);
  std::uint64_t min_accepted = ~0ull;
  std::uint64_t max_accepted = 0;
  for (const TenantReport& t : r.tenants) {
    EXPECT_GT(t.totals.accepted, 0u) << "tenant " << t.tenant << " starved";
    min_accepted = std::min(min_accepted, t.totals.accepted);
    max_accepted = std::max(max_accepted, t.totals.accepted);
  }
  EXPECT_LE(max_accepted, 8 * min_accepted)
      << "DRR failed to keep service shares comparable";
}

// Each DRR drain groups a tenant's batch through submit_write_batch, so
// a bigger quantum amortizes journal bracket records over more writes.
TEST(TenantEngine, BatchedDrainsAmortizeJournalTraffic) {
  const Config config = small_config();
  ServiceConfig s = tenant_service(2);
  s.tenancy.blend = TenantBlend::kUniform;
  s.mean_gap_cycles = 0;  // Closed loop so queues actually build batches.

  const auto journal_bytes = [&](std::uint32_t quantum) {
    ServiceConfig with = s;
    with.tenancy.drr_quantum = quantum;
    const ServiceFrontEnd fe(config, with);
    SimRunner runner(1);
    const ServiceRunResult r = fe.run_virtual(runner);
    std::uint64_t bytes = 0;
    for (const ShardReport& shard : r.shards) bytes += shard.journal_bytes;
    return bytes;
  };

  EXPECT_LT(journal_bytes(16), journal_bytes(1));
}

// The single-tenant default must keep the pre-tenant report shape:
// no tenant array, no quota books, no directory field — bit-identical
// output is the compatibility contract.
TEST(TenantEngine, SingleTenantDefaultKeepsThePreTenantReportShape) {
  const Config config = small_config();
  ServiceConfig s;
  s.shards = 4;
  s.clients = 3;
  s.requests_per_client = 1000;
  s.mean_gap_cycles = 900;
  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);

  EXPECT_TRUE(r.tenants.empty());
  for (const ShardReport& shard : r.shards) {
    EXPECT_TRUE(shard.tenants.empty());
    EXPECT_LT(shard.cache_hit_rate, 0.0);  // PCM: no cache to report.
  }
  EXPECT_EQ(r.metrics.find_counter("service.quota_shed"), nullptr);
  EXPECT_EQ(r.metrics.find_counter("service.tenant.0.submitted"), nullptr);
  EXPECT_EQ(r.metrics.find_gauge("service.shard.cache_hit_rate"), nullptr);

  // And tenant mode does carry the tenant rows and counters.
  const ServiceFrontEnd fe2(config, tenant_service(2));
  SimRunner runner2(1);
  const ServiceRunResult r2 = fe2.run_virtual(runner2);
  EXPECT_EQ(r2.tenants.size(), 2u);
  EXPECT_NE(r2.metrics.find_counter("service.quota_shed"), nullptr);
  EXPECT_NE(r2.metrics.find_counter("service.tenant.0.submitted"), nullptr);
}

// Hybrid backend: the DRAM cache hit rate surfaces through the shard
// health signal into the report and the shard gauge (satellite: cache
// observability through ControllerAvailability).
TEST(TenantEngine, HybridCacheHitRateSurfacesInShardReports) {
  Config config = small_config();
  config.device.backend = DeviceBackend::kHybrid;
  ServiceConfig s;
  s.shards = 2;
  s.clients = 2;
  s.requests_per_client = 1000;
  s.mean_gap_cycles = 900;
  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);

  for (const ShardReport& shard : r.shards) {
    EXPECT_GE(shard.cache_hit_rate, 0.0) << "shard " << shard.shard;
    EXPECT_LE(shard.cache_hit_rate, 1.0) << "shard " << shard.shard;
  }
  EXPECT_NE(r.metrics.find_gauge("service.shard.cache_hit_rate"), nullptr);
}

// A cache hit-rate floor holds under-performing shards degraded: with an
// unreachable floor every shard finishes degraded, with the gate off
// (0.0) they finish healthy.
TEST(TenantEngine, CacheHitRateFloorGatesShardHealth) {
  Config config = small_config();
  config.device.backend = DeviceBackend::kHybrid;
  config.device.hybrid.cache_pages = 4;  // Tiny cache: misses guaranteed.
  config.device.hybrid.ways = 2;
  ServiceConfig s;
  s.shards = 2;
  s.clients = 2;
  s.requests_per_client = 1000;
  s.mean_gap_cycles = 900;

  const ServiceFrontEnd healthy_fe(config, s);
  SimRunner a(1);
  const ServiceRunResult healthy = healthy_fe.run_virtual(a);
  for (const ShardReport& shard : healthy.shards) {
    EXPECT_EQ(shard.final_health, HealthState::kHealthy)
        << "shard " << shard.shard;
  }

  s.min_cache_hit_rate = 0.999;  // Unreachable with a 4-page cache.
  const ServiceFrontEnd gated_fe(config, s);
  SimRunner b(1);
  const ServiceRunResult gated = gated_fe.run_virtual(b);
  for (const ShardReport& shard : gated.shards) {
    EXPECT_NE(shard.final_health, HealthState::kHealthy)
        << "shard " << shard.shard << " ignored the hit-rate floor";
  }
}

}  // namespace
}  // namespace twl
