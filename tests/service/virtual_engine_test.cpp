// The virtual engine's windows (service/virtual_engine.h).
//
// Two properties carry run_virtual's output across the move from one
// sorted pass over every arrival to windows of virtual time:
//  * the windowed arrival order equals an independent reference — every
//    client's requests drawn as the service specifies them, all at once,
//    then std::sort'ed by (at, client, seq);
//  * a shard engine fed its arrivals in one call reports exactly what it
//    reports when cut at arbitrary horizons, including horizons that land
//    on arrivals, retry wake-ups, parked producers and drain completions.
#include "service/virtual_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/sim_runner.h"
#include "fleet/workload.h"
#include "service/service.h"
#include "service/tenant.h"

namespace twl {
namespace {

constexpr Cycles kNoHorizon = std::numeric_limits<Cycles>::max();

Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 1e6;
  return Config::scaled(scale);
}

struct RefArrival {
  Cycles at = 0;
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  std::uint32_t la = 0;
};

/// Every client's requests as the service specifies them — seeds from
/// SplitMix64(seed ^ (0xC11E'A5E0'0000'0000 + client)), gaps of
/// 1 + U[0, 2 * mean - 1) cycles (1 when the mean is 0), addresses from
/// the tenant's stream routed by the directory — then each shard's
/// std::sort'ed by (at, client, seq).
std::vector<std::vector<RefArrival>> reference_arrivals(
    const ServiceFrontEnd& fe) {
  const ServiceConfig& s = fe.service_config();
  const TenancyConfig& ten = s.tenancy;
  std::vector<std::vector<RefArrival>> per_shard(s.shards);
  for (std::uint32_t c = 0; c < s.clients; ++c) {
    SplitMix64 mix(fe.config().seed ^ (0xC11E'A5E0'0000'0000ULL + c));
    const std::uint64_t workload_seed = mix.next();
    XorShift64Star gap(mix.next());
    const TenantId tenant = c % ten.tenants;
    FleetStream stream(
        ten.active() ? blend_workload(ten.blend, tenant, s.workload)
                     : s.workload,
        fe.directory().tenant_pages(tenant), workload_seed);
    Cycles t = 0;
    for (std::uint64_t seq = 0; seq < s.requests_per_client; ++seq) {
      t += s.mean_gap_cycles == 0
               ? 1
               : 1 + gap.next_below(2 * s.mean_gap_cycles - 1);
      const auto [shard, local] =
          fe.route_request(ServiceRequest{tenant, stream.next().value(), 0});
      per_shard[shard].push_back(RefArrival{t, c, seq, local});
    }
  }
  for (std::vector<RefArrival>& v : per_shard) {
    std::sort(v.begin(), v.end(), [](const RefArrival& a, const RefArrival& b) {
      return std::tie(a.at, a.client, a.seq) < std::tie(b.at, b.client, b.seq);
    });
  }
  return per_shard;
}

/// Runs the generator to exhaustion; next_horizon(previous) picks each
/// window's end. Returns each shard's arrivals, windows concatenated.
template <typename NextHorizon>
std::vector<std::vector<Arrival>> windowed_arrivals(
    const ServiceFrontEnd& fe, NextHorizon next_horizon,
    std::size_t& windows) {
  const std::uint32_t shards = fe.service_config().shards;
  ArrivalGenerator gen(fe);
  std::vector<std::vector<Arrival>> window(shards);
  std::vector<std::vector<Arrival>> all(shards);
  Cycles horizon = 0;
  windows = 0;
  while (!gen.exhausted()) {
    horizon = next_horizon(horizon);
    gen.fill(horizon, window);
    ++windows;
    for (std::uint32_t s = 0; s < shards; ++s) {
      for (const Arrival& a : window[s]) {
        EXPECT_LT(a.at, horizon);
        all[s].push_back(a);
      }
    }
  }
  return all;
}

TEST(VirtualEngine, WindowedArrivalsMatchSortedReference) {
  const Config config = small_config();
  for (const std::uint32_t shards : {1u, 3u, 4u}) {
    for (const std::uint32_t clients : {1u, 4u, 32u}) {
      for (const Cycles gap : {Cycles{0}, Cycles{2000}}) {
        for (const std::uint32_t tenants : {1u, 8u}) {
          ServiceConfig s;
          s.shards = shards;
          s.clients = clients;
          s.requests_per_client = 300;
          s.mean_gap_cycles = gap;
          s.tenancy.tenants = tenants;
          s.tenancy.blend = TenantBlend::kHostile;
          const ServiceFrontEnd fe(config, s);
          const std::string where =
              "shards " + std::to_string(shards) + " clients " +
              std::to_string(clients) + " gap " + std::to_string(gap) +
              " tenants " + std::to_string(tenants);
          const auto reference = reference_arrivals(fe);

          const Cycles length = arrival_window_cycles(s);
          std::mt19937_64 rng(shards * 1000 + clients * 10 + tenants + gap);
          const Cycles max_step = 4 * std::max<Cycles>(gap, 1);
          std::size_t derived_windows = 0;
          std::size_t random_windows = 0;
          std::size_t single_window = 0;
          const auto runs = {
              windowed_arrivals(
                  fe, [&](Cycles h) { return h + length; }, derived_windows),
              windowed_arrivals(
                  fe, [&](Cycles h) { return h + 1 + rng() % max_step; },
                  random_windows),
              windowed_arrivals(
                  fe, [](Cycles) { return kNoHorizon; }, single_window),
          };
          EXPECT_EQ(single_window, 1u) << where;
          EXPECT_GT(random_windows, 20u) << where;
          for (const auto& run : runs) {
            for (std::uint32_t sh = 0; sh < shards; ++sh) {
              ASSERT_EQ(run[sh].size(), reference[sh].size())
                  << where << " shard " << sh;
              for (std::size_t i = 0; i < run[sh].size(); ++i) {
                const Arrival& got = run[sh][i];
                const RefArrival& want = reference[sh][i];
                ASSERT_TRUE(got.at == want.at && got.client == want.client &&
                            got.la == want.la)
                    << where << " shard " << sh << " arrival " << i
                    << ": got (" << got.at << ", " << got.client << ", "
                    << got.la << ") want (" << want.at << ", "
                    << want.client << ", " << want.la << ")";
              }
            }
          }
        }
      }
    }
  }
}

/// A service whose one shard the chunking test drives. Every variant
/// runs chaos with corruption, so crash windows force retries.
struct EngineCase {
  std::string name;
  ServiceConfig svc;
};

std::vector<EngineCase> engine_cases() {
  ServiceConfig base;
  base.shards = 2;
  base.clients = 4;
  base.requests_per_client = 1200;
  base.queue_capacity = 8;
  base.chaos.mean_interval_writes = 64;
  base.chaos.corruption = true;
  base.snapshot_interval_writes = 128;

  std::vector<EngineCase> cases;
  {
    ServiceConfig s = base;  // FIFO, shed with retries, deadlines.
    s.overflow = OverflowPolicy::kShed;
    s.max_retries = 1;
    s.queue_capacity = 4;
    s.mean_gap_cycles = 400;
    s.deadline_cycles = 2500;
    cases.push_back({"fifo_shed_deadline", s});
  }
  {
    ServiceConfig s = base;  // FIFO, blocked producers park.
    s.overflow = OverflowPolicy::kBlock;
    s.queue_capacity = 4;
    s.mean_gap_cycles = 500;
    cases.push_back({"fifo_block", s});
  }
  {
    ServiceConfig s = base;  // DRR, block, quota, deadlines.
    s.overflow = OverflowPolicy::kBlock;
    s.mean_gap_cycles = 500;
    s.deadline_cycles = 5000;
    s.tenancy.tenants = 3;
    s.tenancy.blend = TenantBlend::kHostile;
    s.tenancy.quota_rate = 2;
    s.tenancy.quota_burst = 4;
    s.tenancy.drr_quantum = 4;
    cases.push_back({"drr_block_quota_deadline", s});
  }
  {
    ServiceConfig s = base;  // DRR, shed, quota.
    s.clients = 8;
    s.overflow = OverflowPolicy::kShed;
    s.max_retries = 2;
    s.mean_gap_cycles = 600;
    s.tenancy.tenants = 8;
    s.tenancy.blend = TenantBlend::kHammer;
    s.tenancy.quota_rate = 1;
    s.tenancy.quota_burst = 2;
    cases.push_back({"drr_shed_quota", s});
  }
  return cases;
}

TEST(VirtualEngine, ChunkedAdvanceMatchesOneCall) {
  const Config config = small_config();
  for (const EngineCase& c : engine_cases()) {
    SCOPED_TRACE(c.name);
    const ServiceFrontEnd fe(config, c.svc);
    constexpr std::uint32_t kShard = 0;
    std::vector<std::vector<Arrival>> per_shard(c.svc.shards);
    {
      ArrivalGenerator gen(fe);
      gen.fill(kNoHorizon, per_shard);
      ASSERT_TRUE(gen.exhausted());
    }
    const std::vector<Arrival>& arrivals = per_shard[kShard];
    ASSERT_GT(arrivals.size(), 1000u);

    ShardCellResult whole;
    ShardEngine one(fe, kShard);
    const std::uint64_t one_accepted = one.advance(arrivals, std::nullopt);
    one.finish(whole);
    EXPECT_EQ(one_accepted, whole.report.totals.accepted);

    // The engine is the front-end's shard loop.
    SimRunner runner(1);
    const ServiceRunResult full = fe.run_virtual(runner);
    EXPECT_TRUE(full.shards[kShard] == whole.report);

    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      std::mt19937_64 rng(seed);
      ShardEngine engine(fe, kShard);
      std::uint64_t accepted = 0;
      std::size_t next = 0;
      Cycles horizon = 0;
      std::size_t event_cuts = 0;
      std::size_t arrival_cuts = 0;
      for (;;) {
        const std::optional<Cycles> event = engine.next_event();
        if (next == arrivals.size() && !event) break;
        Cycles h = horizon + 1 + rng() % 4096;
        switch (rng() % 4) {
          case 0:  // On the next arrival: it waits for the next call.
            if (next < arrivals.size() && arrivals[next].at > horizon) {
              h = arrivals[next].at;
              ++arrival_cuts;
            }
            break;
          case 1:  // On a retry, parked producer or drain completion.
            if (event && *event > horizon) {
              h = *event;
              ++event_cuts;
            }
            break;
          case 2:  // Just past it.
            if (event) h = *event + 1;
            break;
          default:
            break;
        }
        horizon = std::max(h, horizon + 1);
        const std::size_t from = next;
        while (next < arrivals.size() && arrivals[next].at < horizon) ++next;
        accepted += engine.advance(
            std::span<const Arrival>(arrivals.data() + from, next - from),
            horizon);
        if (const std::optional<Cycles> left = engine.next_event()) {
          ASSERT_GE(*left, horizon) << "an event before the horizon was left";
        }
      }
      accepted += engine.advance({}, std::nullopt);
      ShardCellResult chunked;
      engine.finish(chunked);

      EXPECT_GT(event_cuts, 50u) << "seed " << seed;
      EXPECT_GT(arrival_cuts, 50u) << "seed " << seed;
      EXPECT_EQ(accepted, one_accepted) << "seed " << seed;
      EXPECT_EQ(chunked.report.state_digest, whole.report.state_digest)
          << "seed " << seed;
      EXPECT_TRUE(chunked.report == whole.report) << "seed " << seed;
      EXPECT_TRUE(chunked.metrics == whole.metrics) << "seed " << seed;
    }

    // Each case drives the paths it names.
    const ServiceTotals& t = whole.report.totals;
    EXPECT_TRUE(t.accounting_exact());
    EXPECT_GT(whole.report.outcome.crashes, 0u);
    EXPECT_GT(whole.report.outcome.snapshot_fallbacks, 0u);
    EXPECT_GT(t.retries, 0u);
    if (c.svc.overflow == OverflowPolicy::kBlock) {
      EXPECT_GT(t.blocked, 0u);
    } else {
      EXPECT_GT(t.shed_overflow + t.shed_unavailable, 0u);
    }
    if (c.svc.deadline_cycles != 0) {
      EXPECT_GT(t.timed_out, 0u);
    }
    if (c.svc.tenancy.quota_rate != 0) {
      EXPECT_GT(t.quota_shed, 0u);
    }
  }
}

}  // namespace
}  // namespace twl
