// Service front-end under chaos: crash/corruption injection while live
// clients drive traffic. The acceptance claims: well over 100 injected
// events, every crash recovered with the five recovery invariants
// intact, zero accepted-write loss (whole-history replay), exact
// terminal accounting, and byte-identical virtual runs across --jobs
// levels. Plus the shard-level health state machine: crash -> degraded
// -> healthy, and the retirement feed: degraded (sticky) -> dead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/config.h"
#include "common/sim_runner.h"
#include "service/service.h"
#include "service/shard.h"

namespace twl {
namespace {

Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 1e6;
  return Config::scaled(scale);
}

ServiceConfig chaos_service() {
  ServiceConfig s;
  s.shards = 4;
  s.clients = 4;
  s.requests_per_client = 2000;
  s.queue_capacity = 32;
  // Paced load (arrival rate below service rate) with blocking overflow
  // and retried unavailability: almost all 8000 requests commit even
  // though crash windows (~10k+ cycles) repeatedly interrupt service.
  // With ~2000 accepted writes per shard, a 48-write mean chaos interval
  // fires ~40 events per shard — comfortably past the 100-event floor.
  s.overflow = OverflowPolicy::kBlock;
  s.mean_gap_cycles = 900;
  s.chaos.mean_interval_writes = 48;
  s.chaos.corruption = true;
  s.verify_final_state = true;
  return s;
}

TEST(ServiceChaos, SurvivesChaosUnderLoadWithZeroAcceptedWriteLoss) {
  const Config config = small_config();
  const ServiceConfig s = chaos_service();
  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);

  // The acceptance floor: >= 100 crash/corruption events actually fired.
  EXPECT_GE(r.chaos_totals.crashes, 100u);
  EXPECT_EQ(r.chaos_totals.recoveries, r.chaos_totals.crashes);
  EXPECT_EQ(r.chaos_totals.invariant_failures, 0u);
  // Corruption kinds must have exercised the snapshot-fallback path, and
  // mid-write cuts the rollback + resubmit path.
  EXPECT_GT(r.chaos_totals.snapshot_fallbacks, 0u);
  EXPECT_GT(r.chaos_totals.rollbacks, 0u);
  std::uint64_t by_kind = 0;
  for (const std::uint64_t c : r.chaos_totals.chaos_by_kind) by_kind += c;
  EXPECT_EQ(by_kind, r.chaos_totals.crashes)
      << "per-kind tallies must partition the crash count";

  // Terminal accounting is exact in aggregate and per shard.
  EXPECT_TRUE(r.totals.accounting_exact());
  EXPECT_EQ(r.totals.submitted,
            std::uint64_t{s.clients} * s.requests_per_client);
  std::uint64_t accepted = 0;
  for (const ShardReport& rep : r.shards) {
    EXPECT_TRUE(rep.totals.accounting_exact()) << "shard " << rep.shard;
    EXPECT_EQ(rep.outcome.invariant_failures, 0u);
    EXPECT_FALSE(rep.dead);
    // Zero accepted-write loss: replaying the shard's entire accepted
    // history on a fresh stack reproduces its final metadata exactly —
    // across every crash, rollback and snapshot fallback.
    EXPECT_TRUE(rep.history_verified) << "shard " << rep.shard;
    accepted += rep.totals.accepted;
  }
  EXPECT_EQ(accepted, r.totals.accepted);
  // Crash unavailability windows force retries under closed-loop load.
  EXPECT_GT(r.totals.retries, 0u);
}

TEST(ServiceChaos, VirtualRunsAreByteIdenticalAcrossJobsAndRepeats) {
  const Config config = small_config();
  const ServiceConfig s = chaos_service();
  const ServiceFrontEnd fe(config, s);

  SimRunner serial(1);
  const ServiceRunResult a = fe.run_virtual(serial);
  SimRunner parallel(4);
  const ServiceRunResult b = fe.run_virtual(parallel);
  SimRunner repeat(1);
  const ServiceRunResult c = fe.run_virtual(repeat);

  EXPECT_TRUE(a == b) << "--jobs 1 vs --jobs 4 diverged under chaos";
  EXPECT_TRUE(a == c) << "fixed-seed repeat diverged under chaos";
  EXPECT_EQ(a.service_digest, b.service_digest);

  // A different seed is a genuinely different universe (the digest is
  // not a constant of the config shape).
  Config reseeded = config;
  reseeded.seed = config.seed + 1;
  const ServiceFrontEnd other(reseeded, s);
  SimRunner runner(1);
  EXPECT_NE(other.run_virtual(runner).service_digest, a.service_digest);
}

TEST(ServiceChaos, CrashPenaltiesOverrunDeadlinesHonestly) {
  const Config config = small_config();
  ServiceConfig s = chaos_service();
  s.verify_final_state = false;
  s.mean_gap_cycles = 700;   // Open-loop: queues stay shallow...
  s.deadline_cycles = 8000;  // ...so only crash penalties (~10k+ cycles)
                             // push an accepted write past its deadline.

  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);
  EXPECT_TRUE(r.totals.accounting_exact());
  EXPECT_GT(r.chaos_totals.crashes, 0u);
  EXPECT_EQ(r.chaos_totals.invariant_failures, 0u);
  // The write interrupted by a crash is accepted (never lost) but its
  // completion slips past the deadline: an overrun, not a timeout.
  EXPECT_GT(r.totals.deadline_overruns, 0u);
}

// Health state machine at the shard level: a crash quarantines, recovery
// degrades, and a clean degraded window heals back to healthy.
TEST(ServiceShardHealth, CrashDegradesThenHeals) {
  Config config = small_config();
  ShardParams params;
  params.chaos.mean_interval_writes = 500;
  params.horizon_writes = 4000;
  params.degraded_window_writes = 8;

  ServiceShard shard(config, params, /*index=*/0);
  EXPECT_EQ(shard.health(), HealthState::kHealthy);

  const std::uint64_t pages = shard.logical_pages();
  bool saw_crash_cycle = false;
  for (std::uint64_t i = 0; i < 4000 && !saw_crash_cycle; ++i) {
    const ShardExecOutcome out =
        shard.execute(LogicalPageAddr(static_cast<std::uint32_t>(i % pages)));
    if (!out.crashed) continue;
    // Post-recovery: degraded, with the crash penalty accounted.
    EXPECT_EQ(shard.health(), HealthState::kDegraded);
    EXPECT_GE(out.penalty_cycles,
              params.quarantine_cycles + params.recovery_base_cycles);
    // A clean window heals the shard (unless a second crash lands
    // inside it; with mean interval 500 that is the rare path, so just
    // retry the window when it happens).
    std::uint64_t clean = 0;
    while (clean < params.degraded_window_writes) {
      const ShardExecOutcome w = shard.execute(
          LogicalPageAddr(static_cast<std::uint32_t>(clean % pages)));
      clean = w.crashed ? 0 : clean + 1;
    }
    EXPECT_EQ(shard.health(), HealthState::kHealthy);
    saw_crash_cycle = true;
  }
  EXPECT_TRUE(saw_crash_cycle) << "chaos schedule never fired";
  EXPECT_GT(shard.outcome().crashes, 0u);
  EXPECT_EQ(shard.outcome().invariant_failures, 0u);
}

// execute_batch is execute() in groups: the same addresses through both,
// under chaos with corruption, give the same crash penalty per write,
// the same accepted count and the same final state. Snapshot rotation
// every 64 writes falls inside groups as well as at their edges.
TEST(ServiceShard, ExecuteBatchMatchesExecuteUnderChaos) {
  const Config config = small_config();
  ShardParams params;
  params.chaos.mean_interval_writes = 40;
  params.chaos.corruption = true;
  params.horizon_writes = 6000;
  params.snapshot_interval_writes = 64;

  ServiceShard batched(config, params, /*index=*/1);
  ServiceShard single(config, params, /*index=*/1);
  const std::uint64_t pages = batched.logical_pages();
  std::mt19937_64 rng(20170618);
  std::vector<LogicalPageAddr> las(params.horizon_writes);
  for (LogicalPageAddr& la : las) {
    la = LogicalPageAddr(static_cast<std::uint32_t>(rng() % pages));
  }

  // Every position must be written, clean writes with 0.
  constexpr Cycles kUnset = ~Cycles{0};
  std::vector<Cycles> batch_penalty(las.size(), kUnset);
  for (std::size_t i = 0; i < las.size();) {
    const std::size_t n = std::min<std::size_t>(las.size() - i,
                                                 1 + rng() % 24);
    const ShardBatchOutcome bo =
        batched.execute_batch(las.data() + i, n, batch_penalty.data() + i);
    ASSERT_EQ(bo.executed, n) << "write " << i;
    i += n;
  }
  std::uint64_t crashes = 0;
  for (std::size_t i = 0; i < las.size(); ++i) {
    const ShardExecOutcome ex = single.execute(las[i]);
    crashes += ex.crashed ? 1 : 0;
    ASSERT_EQ(batch_penalty[i], ex.penalty_cycles) << "write " << i;
  }
  EXPECT_GT(crashes, 50u);
  EXPECT_EQ(batched.accepted(), single.accepted());
  EXPECT_EQ(batched.accepted(), las.size());
  EXPECT_EQ(batched.state_digest(), single.state_digest());
  EXPECT_TRUE(batched.outcome() == single.outcome());
  EXPECT_GT(batched.outcome().snapshot_fallbacks, 0u);
  EXPECT_EQ(batched.outcome().invariant_failures, 0u);
}

// Retirement feed: consuming spares makes a shard sticky-degraded;
// exhausting them kills it (permanently quarantined, dead()).
TEST(ServiceShardHealth, RetirementDegradesThenKills) {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 512;  // Wears out within the test.
  Config config = Config::scaled(scale);
  config.fault.spare_pages = 4;

  ShardParams params;  // No chaos: the only threat is wear-out.
  ServiceShard shard(config, params, /*index=*/0);
  const std::uint64_t pages = shard.logical_pages();

  bool saw_degraded = false;
  std::uint64_t writes = 0;
  constexpr std::uint64_t kCap = 2'000'000;
  while (!shard.dead() && writes < kCap) {
    (void)shard.execute(
        LogicalPageAddr(static_cast<std::uint32_t>(writes % pages)));
    ++writes;
    if (shard.controller().stats().pages_retired > 0 && !shard.dead()) {
      // Sticky: degraded never heals, no matter how many clean writes.
      EXPECT_EQ(shard.health(), HealthState::kDegraded);
      saw_degraded = true;
    }
  }
  EXPECT_TRUE(saw_degraded) << "no page was ever retired";
  ASSERT_TRUE(shard.dead()) << "spare pool never exhausted after "
                            << writes << " writes";
  EXPECT_EQ(shard.health(), HealthState::kQuarantined);
  EXPECT_GT(shard.controller().stats().pages_retired, 0u);
  EXPECT_EQ(shard.controller().availability(),
            ControllerAvailability::kFailed);
}

// The front-end sheds traffic for dead shards instead of failing: with a
// wear-out-sized endurance the whole run still balances its books and
// reports the dead shards honestly — graceful degradation, not an abort.
TEST(ServiceChaos, DeadShardsShedTrafficGracefully) {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 512;
  Config config = Config::scaled(scale);
  config.fault.spare_pages = 2;

  ServiceConfig s;
  s.shards = 2;
  s.clients = 2;
  s.requests_per_client = 40000;  // Enough to wear out both shards.
  s.queue_capacity = 32;
  s.overflow = OverflowPolicy::kBlock;  // Deliver everything... until dead.

  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);

  EXPECT_TRUE(r.totals.accounting_exact());
  bool any_dead = false;
  for (const ShardReport& rep : r.shards) {
    EXPECT_TRUE(rep.totals.accounting_exact()) << "shard " << rep.shard;
    if (rep.dead) {
      any_dead = true;
      EXPECT_EQ(rep.final_health, HealthState::kQuarantined);
      EXPECT_GT(rep.totals.shed_unavailable, 0u) << "shard " << rep.shard;
    }
  }
  EXPECT_TRUE(any_dead) << "endurance never exhausted a shard";
  EXPECT_GT(r.totals.shed_unavailable, 0u);
  EXPECT_LT(r.totals.accepted, r.totals.submitted);
}

}  // namespace
}  // namespace twl
