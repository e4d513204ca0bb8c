// Service front-end (chaos-free paths): configuration validation,
// routing, accounting exactness, deadlines/back-pressure behavior, and
// the determinism contract — run_virtual is byte-identical across
// --jobs 1 / --jobs N and across repeated runs at a fixed seed.
#include "service/service.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/config.h"
#include "common/sim_runner.h"
#include "obs/json.h"

namespace twl {
namespace {

Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 1e6;
  return Config::scaled(scale);
}

ServiceConfig small_service() {
  ServiceConfig s;
  s.shards = 4;
  s.clients = 3;
  s.requests_per_client = 2000;
  s.queue_capacity = 16;
  // Lossless back-pressure by default: the flood of back-to-back
  // arrivals far outruns the 600-cycle service time, so kShed would
  // (correctly) shed most of it. Tests that want shedding opt in.
  s.overflow = OverflowPolicy::kBlock;
  return s;
}

TEST(ServicePolicies, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_sharding_policy("hash"), ShardingPolicy::kHashLa);
  EXPECT_EQ(parse_sharding_policy("modulo"), ShardingPolicy::kModuloLa);
  EXPECT_EQ(parse_overflow_policy("shed"), OverflowPolicy::kShed);
  EXPECT_EQ(parse_overflow_policy("block"), OverflowPolicy::kBlock);
  EXPECT_EQ(to_string(ShardingPolicy::kHashLa), "hash");
  EXPECT_EQ(to_string(OverflowPolicy::kBlock), "block");
  // Bad names fail loudly, naming the valid choices.
  try {
    (void)parse_sharding_policy("roulette");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hash"), std::string::npos);
  }
  EXPECT_THROW((void)parse_overflow_policy(""), std::invalid_argument);
}

TEST(ServiceConfigValidate, RejectsNonsense) {
  const Config config = small_config();

  ServiceConfig s = small_service();
  s.shards = 0;
  EXPECT_THROW((void)ServiceFrontEnd(config, s), std::invalid_argument);

  s = small_service();
  s.clients = 0;
  EXPECT_THROW((void)ServiceFrontEnd(config, s), std::invalid_argument);

  s = small_service();
  s.queue_capacity = 0;
  EXPECT_THROW((void)ServiceFrontEnd(config, s), std::invalid_argument);

  s = small_service();
  s.service_cycles = 0;
  EXPECT_THROW((void)ServiceFrontEnd(config, s), std::invalid_argument);

  s = small_service();
  s.scheme_spec = "";
  EXPECT_THROW((void)ServiceFrontEnd(config, s), std::invalid_argument);

  // Chaos recovery replays demand writes; the probabilistic fault model
  // would make the replay diverge, so the pair is rejected up front.
  s = small_service();
  s.chaos.mean_interval_writes = 500;
  Config faulty = config;
  faulty.fault.ecp_k = 2;
  EXPECT_THROW((void)ServiceFrontEnd(faulty, s), std::invalid_argument);
}

TEST(ServiceConfigValidate, RejectsAGapWhoseLastArrivalPassesTheLimit) {
  const Config config = small_config();
  constexpr Cycles kLimit = Cycles{1} << 62;
  const auto builds = [&](std::uint64_t requests, Cycles gap) {
    ServiceConfig s = small_service();
    s.requests_per_client = requests;
    s.mean_gap_cycles = gap;
    (void)ServiceFrontEnd(config, s);
  };
  // The last arrival lands by requests * (2 * gap - 1) cycles.
  EXPECT_NO_THROW(builds(1, kLimit / 2));       // 2^62 - 1.
  EXPECT_NO_THROW(builds(2, kLimit / 4));       // 2^62 - 2.
  EXPECT_THROW(builds(1, kLimit / 2 + 1), std::invalid_argument);
  EXPECT_THROW(builds(3, kLimit / 4), std::invalid_argument);
  EXPECT_THROW(builds(8, kLimit), std::invalid_argument);
  // 2 * gap would wrap here; the check must not.
  EXPECT_THROW(builds(1, ~Cycles{0}), std::invalid_argument);
  EXPECT_THROW(builds(~std::uint64_t{0}, 1), std::invalid_argument);
  try {
    builds(8, kLimit);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2^62"), std::string::npos)
        << e.what();
  }
}

TEST(ServiceRouting, PoliciesCoverAllShardsAndStayInRange) {
  const Config config = small_config();
  for (const ShardingPolicy policy :
       {ShardingPolicy::kHashLa, ShardingPolicy::kModuloLa}) {
    ServiceConfig s = small_service();
    s.sharding = policy;
    const ServiceFrontEnd fe(config, s);
    ASSERT_GT(fe.global_pages(), 0u);
    EXPECT_EQ(fe.global_pages(), fe.local_pages() * s.shards);

    std::vector<std::uint64_t> hits(s.shards, 0);
    for (std::uint32_t la = 0; la < fe.global_pages(); ++la) {
      const auto [shard, local] = fe.route(la);
      ASSERT_LT(shard, s.shards);
      ASSERT_LT(local, fe.local_pages());
      // Routing is a pure function.
      EXPECT_EQ(fe.route(la), std::make_pair(shard, local));
      ++hits[shard];
    }
    for (std::uint32_t sh = 0; sh < s.shards; ++sh) {
      EXPECT_GT(hits[sh], 0u) << to_string(policy) << " starves shard "
                              << sh;
    }
  }
}

TEST(ServiceVirtual, JobsOneAndJobsNAreByteIdentical) {
  const Config config = small_config();
  const ServiceConfig s = small_service();
  const ServiceFrontEnd fe(config, s);

  SimRunner serial(1);
  const ServiceRunResult a = fe.run_virtual(serial);
  SimRunner parallel(4);
  const ServiceRunResult b = fe.run_virtual(parallel);
  SimRunner again(1);
  const ServiceRunResult c = fe.run_virtual(again);

  EXPECT_TRUE(a == b) << "--jobs 1 vs --jobs 4 diverged";
  EXPECT_TRUE(a == c) << "repeated fixed-seed runs diverged";

  // And the identity is visible at the JSON layer too (the CI diff).
  JsonWriter wa;
  a.write_json(wa);
  JsonWriter wb;
  b.write_json(wb);
  EXPECT_EQ(wa.str(), wb.str());
}

TEST(ServiceVirtual, ClosedLoopAccountingIsExact) {
  const Config config = small_config();
  const ServiceConfig s = small_service();
  const ServiceFrontEnd fe(config, s);
  SimRunner runner(1);
  const ServiceRunResult r = fe.run_virtual(runner);

  EXPECT_TRUE(r.totals.accounting_exact());
  EXPECT_EQ(r.totals.submitted,
            std::uint64_t{s.clients} * s.requests_per_client);
  // No chaos, no deadline: nothing sheds and nothing times out.
  EXPECT_EQ(r.totals.accepted, r.totals.submitted);
  EXPECT_EQ(r.totals.timed_out, 0u);
  EXPECT_EQ(r.chaos_totals.crashes, 0u);
  ASSERT_EQ(r.shards.size(), s.shards);
  for (const ShardReport& rep : r.shards) {
    EXPECT_TRUE(rep.totals.accounting_exact());
    EXPECT_EQ(rep.final_health, HealthState::kHealthy);
    EXPECT_FALSE(rep.dead);
    EXPECT_LE(rep.peak_queue_depth, s.queue_capacity);
    EXPECT_GT(rep.totals.accepted, 0u);
  }
  EXPECT_GT(r.latency_p99, 0.0);
  EXPECT_GE(r.latency_p99, r.latency_p50);

  const Counter* accepted = r.metrics.find_counter("service.accepted");
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->value(), r.totals.accepted);
}

// A closed-loop load with back-to-back arrivals and a tiny queue forces
// the back-pressure path. Under kBlock nothing is ever lost (blocked
// producers wait); under kShed with no retry budget the overflow is shed
// and the books still balance.
TEST(ServiceVirtual, OverflowPoliciesBlockOrShed) {
  const Config config = small_config();
  ServiceConfig s = small_service();
  s.clients = 4;
  s.requests_per_client = 4000;
  s.queue_capacity = 4;
  s.service_cycles = 900;  // Service slower than arrivals: queues fill.

  s.overflow = OverflowPolicy::kBlock;
  {
    const ServiceFrontEnd fe(config, s);
    SimRunner runner(1);
    const ServiceRunResult r = fe.run_virtual(runner);
    EXPECT_TRUE(r.totals.accounting_exact());
    EXPECT_EQ(r.totals.accepted, r.totals.submitted);
    EXPECT_GT(r.totals.blocked, 0u) << "load never hit the queue bound";
    EXPECT_EQ(r.totals.shed_overflow, 0u);
  }

  s.overflow = OverflowPolicy::kShed;
  s.max_retries = 0;
  {
    const ServiceFrontEnd fe(config, s);
    SimRunner runner(1);
    const ServiceRunResult r = fe.run_virtual(runner);
    EXPECT_TRUE(r.totals.accounting_exact());
    EXPECT_GT(r.totals.shed_overflow, 0u);
    EXPECT_LT(r.totals.accepted, r.totals.submitted);
  }

  // With a retry budget, backoff absorbs some of the overflow: strictly
  // fewer sheds than the no-retry run, and retries actually happened.
  s.max_retries = 4;
  {
    const ServiceFrontEnd fe(config, s);
    SimRunner runner(1);
    const ServiceRunResult r = fe.run_virtual(runner);
    EXPECT_TRUE(r.totals.accounting_exact());
    EXPECT_GT(r.totals.retries, 0u);
  }
}

TEST(ServiceVirtual, DeadlinesTimeOutDoomedRequests) {
  const Config config = small_config();
  for (const std::uint32_t tenants : {1u, 2u}) {
    ServiceConfig s = small_service();
    s.clients = 2;
    s.requests_per_client = 3000;
    s.queue_capacity = 64;
    s.service_cycles = 800;
    // Tighter than the queueing delay under closed-loop load: requests
    // that would start too late are rejected as timeouts.
    s.deadline_cycles = 2400;
    s.overflow = OverflowPolicy::kBlock;
    s.tenancy.tenants = tenants;

    const ServiceFrontEnd fe(config, s);
    SimRunner runner(1);
    const ServiceRunResult r = fe.run_virtual(runner);
    EXPECT_TRUE(r.totals.accounting_exact()) << tenants;
    EXPECT_GT(r.totals.timed_out, 0u) << tenants;
    EXPECT_GT(r.totals.accepted, 0u) << tenants;
    if (tenants == 1) {
      // FIFO rejects a request that would finish late before writing
      // it, so without chaos no accepted request overruns.
      EXPECT_EQ(r.totals.deadline_overruns, 0u);
      // The latency histogram is log-bucketed, so compare p99 against
      // the bucket ceiling of the deadline, not the deadline itself.
      EXPECT_LE(r.latency_p99,
                static_cast<double>(LogHistogram::bucket_hi(
                    LogHistogram::bucket_index(s.deadline_cycles))));
    } else {
      // DRR checks the deadline when a request joins its tenant's queue
      // and again when a drain takes it; a request still in time then
      // is written, and may finish late behind the rest of its drain.
      for (const TenantReport& t : r.tenants) {
        EXPECT_TRUE(t.totals.accounting_exact()) << "tenant " << t.tenant;
        EXPECT_GT(t.totals.timed_out, 0u) << "tenant " << t.tenant;
      }
      EXPECT_GT(r.totals.deadline_overruns, 0u);
    }
  }
}

TEST(ServiceVirtual, LargestDeadlineEqualsNoDeadline) {
  const Config config = small_config();
  // FIFO with shed-and-retry checks the deadline at arrival and after each
  // backoff; DRR also checks it when a drain takes a request and again at
  // completion.
  for (const std::uint32_t tenants : {1u, 2u}) {
    ServiceConfig s = small_service();
    s.clients = 2;
    s.requests_per_client = 1500;
    s.service_cycles = 800;
    s.tenancy.tenants = tenants;
    if (tenants == 1) {
      s.overflow = OverflowPolicy::kShed;
      s.max_retries = 2;
    }
    const ServiceFrontEnd none(config, s);
    s.deadline_cycles = ~Cycles{0};
    const ServiceFrontEnd largest(config, s);

    SimRunner runner(1);
    const ServiceRunResult a = none.run_virtual(runner);
    const ServiceRunResult b = largest.run_virtual(runner);
    EXPECT_GT(b.totals.accepted, 0u) << tenants;
    EXPECT_EQ(b.totals.timed_out, 0u) << tenants;
    EXPECT_EQ(b.totals.deadline_overruns, 0u) << tenants;
    EXPECT_EQ(a.totals, b.totals) << tenants;
    EXPECT_EQ(a.tenants, b.tenants) << tenants;
    EXPECT_EQ(a.service_digest, b.service_digest) << tenants;
    EXPECT_TRUE(a == b) << tenants;
  }
}

TEST(ServiceVirtual, ShardingPolicyChangesTheDigestNotTheBooks) {
  const Config config = small_config();
  ServiceConfig s = small_service();
  const ServiceFrontEnd hash_fe(config, s);
  s.sharding = ShardingPolicy::kModuloLa;
  const ServiceFrontEnd mod_fe(config, s);

  SimRunner runner(1);
  const ServiceRunResult a = hash_fe.run_virtual(runner);
  const ServiceRunResult b = mod_fe.run_virtual(runner);
  EXPECT_EQ(a.totals.submitted, b.totals.submitted);
  EXPECT_TRUE(a.totals.accounting_exact());
  EXPECT_TRUE(b.totals.accounting_exact());
  EXPECT_NE(a.service_digest, b.service_digest)
      << "different routing should land different per-shard traffic";
}

// Real-time mode is not deterministic, but its books must balance and it
// must survive TSan (this test is in the sanitizer CI jobs). Kept small:
// correctness of the shared accounting, not throughput, is the claim.
TEST(ServiceRealtime, ThreadedRunBalancesItsBooks) {
  const Config config = small_config();
  ServiceConfig s;
  s.shards = 2;
  s.clients = 3;
  s.requests_per_client = 5000;
  s.queue_capacity = 32;
  s.overflow = OverflowPolicy::kBlock;  // Lossless: producers wait.

  const ServiceFrontEnd fe(config, s);
  const ServiceRunResult r = fe.run_realtime();
  EXPECT_TRUE(r.totals.accounting_exact());
  EXPECT_EQ(r.totals.submitted,
            std::uint64_t{s.clients} * s.requests_per_client);
  EXPECT_EQ(r.totals.accepted, r.totals.submitted);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.requests_per_second, 0.0);
  const LogHistogram* lat =
      r.metrics.find_histogram("service.request_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), r.totals.accepted);
}

// Tenant mode in real time: one lane per (shard, tenant), quota gates on
// the client flush, shed on overflow. The books must partition exactly
// per tenant, per shard and in aggregate. A burst below the 256-request
// flush guarantees quota rejections however slow the host runs.
TEST(ServiceRealtime, TenantLanesBalanceTheirBooks) {
  const Config config = small_config();
  ServiceConfig s;
  s.shards = 2;
  s.clients = 3;
  s.requests_per_client = 5000;
  s.queue_capacity = 32;
  s.overflow = OverflowPolicy::kShed;
  s.tenancy.tenants = 3;
  s.tenancy.blend = TenantBlend::kHostile;
  s.tenancy.quota_rate = 1;
  s.tenancy.quota_burst = 4;

  const ServiceFrontEnd fe(config, s);
  const ServiceRunResult r = fe.run_realtime();
  EXPECT_TRUE(r.totals.accounting_exact());
  EXPECT_EQ(r.totals.submitted,
            std::uint64_t{s.clients} * s.requests_per_client);
  EXPECT_GT(r.totals.quota_shed, 0u);

  ASSERT_EQ(r.tenants.size(), s.tenancy.tenants);
  std::uint64_t tenant_submitted = 0;
  for (const TenantReport& t : r.tenants) {
    EXPECT_TRUE(t.totals.accounting_exact()) << "tenant " << t.tenant;
    EXPECT_EQ(t.totals.submitted, s.requests_per_client)
        << "tenant " << t.tenant;
    tenant_submitted += t.totals.submitted;
  }
  EXPECT_EQ(tenant_submitted, r.totals.submitted);
  ASSERT_EQ(r.shards.size(), s.shards);
  for (const ShardReport& shard : r.shards) {
    EXPECT_TRUE(shard.totals.accounting_exact()) << "shard " << shard.shard;
    ASSERT_EQ(shard.tenants.size(), s.tenancy.tenants);
    for (const TenantReport& t : shard.tenants) {
      EXPECT_TRUE(t.totals.accounting_exact())
          << "shard " << shard.shard << " tenant " << t.tenant;
    }
  }

  const LogHistogram* lat =
      r.metrics.find_histogram("service.request_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), r.totals.accepted);
  const Counter* quota = r.metrics.find_counter("service.quota_shed");
  ASSERT_NE(quota, nullptr);
  EXPECT_EQ(quota->value(), r.totals.quota_shed);
}

}  // namespace
}  // namespace twl
