#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/checksum.h"
#include "common/names.h"
#include "obs/json.h"
#include "service/queue.h"
#include "service/virtual_engine.h"
#include "wl/factory.h"
#include "wl/wear_leveler.h"

namespace twl {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Real-time batch sizes: clients stage this many requests per shard
/// before taking the queue lock once; workers drain up to this many per
/// acquisition. The lock cost amortizes to a fraction of a nanosecond
/// per request.
constexpr std::size_t kClientFlushBatch = 256;
constexpr std::size_t kWorkerDrainBatch = 256;

}  // namespace

std::string to_string(ShardingPolicy p) {
  switch (p) {
    case ShardingPolicy::kHashLa:
      return "hash";
    case ShardingPolicy::kModuloLa:
      return "modulo";
  }
  return "unknown";
}

std::string to_string(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::kShed:
      return "shed";
    case OverflowPolicy::kBlock:
      return "block";
  }
  return "unknown";
}

ShardingPolicy parse_sharding_policy(const std::string& name) {
  if (name == "hash") return ShardingPolicy::kHashLa;
  if (name == "modulo") return ShardingPolicy::kModuloLa;
  throw_unknown_name("sharding policy", name, "hash, modulo");
}

OverflowPolicy parse_overflow_policy(const std::string& name) {
  if (name == "shed") return OverflowPolicy::kShed;
  if (name == "block") return OverflowPolicy::kBlock;
  throw_unknown_name("overflow policy", name, "shed, block");
}

void ServiceConfig::validate(const Config& config) const {
  if (shards == 0 || clients == 0 || requests_per_client == 0) {
    throw std::invalid_argument(
        "service config: shards, clients and requests_per_client must all "
        "be positive");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("service config: queue_capacity must be "
                                "positive");
  }
  if (service_cycles == 0) {
    throw std::invalid_argument("service config: service_cycles must be "
                                "positive");
  }
  // Each arrival moves its client's clock on by at most 2·gap − 1 cycles,
  // so the last lands by requests_per_client × (2·gap − 1). Capping that
  // at 2^62 leaves virtual time headroom that no queueing delay wraps.
  constexpr Cycles kMaxArrivalCycles = Cycles{1} << 62;
  if (mean_gap_cycles > 0 &&
      (mean_gap_cycles > kMaxArrivalCycles / 2 ||
       requests_per_client >
           kMaxArrivalCycles / (2 * mean_gap_cycles - 1))) {
    throw std::invalid_argument(
        "service config: mean_gap_cycles too large: requests_per_client * "
        "(2 * mean_gap_cycles - 1) must be at most 2^62 cycles");
  }
  if (snapshot_interval_writes == 0) {
    throw std::invalid_argument(
        "service config: snapshot_interval_writes must be positive");
  }
  if (scheme_spec.empty()) {
    throw std::invalid_argument("service config: scheme_spec must not be "
                                "empty");
  }
  if (chaos.enabled() && config.fault.enabled()) {
    throw std::invalid_argument(
        "service config: chaos and the fault model are mutually exclusive "
        "(crash recovery replays demand writes only)");
  }
  if (verify_final_state && config.fault.retirement_enabled()) {
    throw std::invalid_argument(
        "service config: verify_final_state requires the binary wear-out "
        "model (whole-history replay)");
  }
  if (tenancy.tenants == 0) {
    throw std::invalid_argument("service config: tenants must be positive");
  }
  if (tenancy.drr_quantum == 0) {
    throw std::invalid_argument(
        "service config: drr_quantum must be positive");
  }
  if (tenancy.quota_rate > 0 && tenancy.quota_burst == 0) {
    throw std::invalid_argument(
        "service config: quota_burst must be positive when quota_rate is "
        "set");
  }
  if (min_cache_hit_rate < 0.0 || min_cache_hit_rate > 1.0) {
    throw std::invalid_argument(
        "service config: min_cache_hit_rate must be in [0, 1]");
  }
}

void ServiceRunResult::write_json(JsonWriter& w) const {
  // Tenant fields are emitted only in tenant mode: the single-tenant
  // default document stays byte-identical to the pre-tenant format.
  const bool tenant_mode = !tenants.empty();
  w.begin_object();
  w.kv("submitted", totals.submitted);
  w.kv("accepted", totals.accepted);
  w.kv("shed_overflow", totals.shed_overflow);
  w.kv("shed_unavailable", totals.shed_unavailable);
  if (tenant_mode) w.kv("quota_shed", totals.quota_shed);
  w.kv("timed_out", totals.timed_out);
  w.kv("retries", totals.retries);
  w.kv("blocked", totals.blocked);
  w.kv("deadline_overruns", totals.deadline_overruns);
  w.kv("accounting_exact", totals.accounting_exact());
  w.kv("latency_p50", latency_p50);
  w.kv("latency_p99", latency_p99);
  w.kv("wall_seconds", wall_seconds);
  w.kv("requests_per_second", requests_per_second);
  w.kv("crashes", chaos_totals.crashes);
  w.kv("recoveries", chaos_totals.recoveries);
  w.kv("rollbacks", chaos_totals.rollbacks);
  w.kv("snapshot_fallbacks", chaos_totals.snapshot_fallbacks);
  w.kv("invariant_failures", chaos_totals.invariant_failures);
  w.kv("replayed_writes", chaos_totals.replayed_writes);
  w.kv("service_digest", service_digest);
  if (tenant_mode) {
    w.key("tenants");
    w.begin_array();
    for (const TenantReport& t : tenants) {
      w.begin_object();
      w.kv("tenant", t.tenant);
      w.kv("pages", t.pages);
      w.kv("submitted", t.totals.submitted);
      w.kv("accepted", t.totals.accepted);
      w.kv("shed_overflow", t.totals.shed_overflow);
      w.kv("shed_unavailable", t.totals.shed_unavailable);
      w.kv("quota_shed", t.totals.quota_shed);
      w.kv("timed_out", t.totals.timed_out);
      w.kv("retries", t.totals.retries);
      w.kv("blocked", t.totals.blocked);
      w.kv("deadline_overruns", t.totals.deadline_overruns);
      w.kv("accounting_exact", t.totals.accounting_exact());
      w.end_object();
    }
    w.end_array();
  }
  w.key("shards");
  w.begin_array();
  for (const ShardReport& s : shards) {
    w.begin_object();
    w.kv("shard", s.shard);
    w.kv("final_health", to_string(s.final_health));
    w.kv("dead", s.dead);
    w.kv("submitted", s.totals.submitted);
    w.kv("accepted", s.totals.accepted);
    w.kv("shed_overflow", s.totals.shed_overflow);
    w.kv("shed_unavailable", s.totals.shed_unavailable);
    if (tenant_mode) w.kv("quota_shed", s.totals.quota_shed);
    w.kv("timed_out", s.totals.timed_out);
    w.kv("retries", s.totals.retries);
    w.kv("blocked", s.totals.blocked);
    w.kv("deadline_overruns", s.totals.deadline_overruns);
    w.kv("peak_queue_depth", s.peak_queue_depth);
    w.kv("crashes", s.outcome.crashes);
    w.kv("invariant_failures", s.outcome.invariant_failures);
    w.kv("journal_bytes", s.journal_bytes);
    w.kv("state_digest", s.state_digest);
    w.kv("history_verified", s.history_verified);
    if (tenant_mode) w.kv("directory_verified", s.directory_verified);
    if (s.cache_hit_rate >= 0) w.kv("cache_hit_rate", s.cache_hit_rate);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

ServiceFrontEnd::ServiceFrontEnd(const Config& config,
                                 const ServiceConfig& service)
    : config_(config), service_(service) {
  config_.validate();
  service_.validate(config_);
  // Logical capacity is a pure function of the configuration (never of
  // the seed), so one probe scheme tells us every shard's local space.
  EnduranceMap probe_endurance(config_.geometry.pages(), config_.endurance,
                               /*seed=*/0);
  const auto probe =
      make_wear_leveler_spec(service_.scheme_spec, probe_endurance, config_);
  local_pages_ = probe->logical_pages();
  global_pages_ = local_pages_ * service_.shards;
  // The directory exists in every mode (one full-space tenant by
  // default); carve() throws on oversubscribed budgets or a tenant
  // population the shard space cannot fit.
  directory_ = TenantDirectory::carve(
      local_pages_, service_.shards,
      std::vector<std::uint64_t>(service_.tenancy.tenants,
                                 service_.tenancy.quota_pages));
}

std::pair<std::uint32_t, std::uint32_t> ServiceFrontEnd::route(
    std::uint32_t global_la) const {
  // Tenant 0's span starts at local page 0 on every shard, so its
  // translation is the full-space one.
  return directory_.translate(0, global_la, service_.sharding);
}

ShardParams ServiceFrontEnd::shard_params() const {
  ShardParams p;
  p.scheme_spec = service_.scheme_spec;
  p.chaos = service_.chaos;
  p.horizon_writes =
      service_.clients * service_.requests_per_client;
  p.snapshot_interval_writes = service_.snapshot_interval_writes;
  p.degraded_window_writes = service_.degraded_window_writes;
  p.quarantine_cycles = service_.quarantine_cycles;
  p.recovery_base_cycles = service_.recovery_base_cycles;
  p.recovery_per_replay_cycles = service_.recovery_per_replay_cycles;
  p.keep_history = service_.verify_final_state;
  p.min_cache_hit_rate = service_.min_cache_hit_rate;
  if (service_.tenancy.active()) {
    p.directory_blob = directory_.serialize();
  }
  return p;
}

FleetStream ServiceFrontEnd::client_stream(std::uint32_t client) const {
  // Clients are assigned round-robin to tenants and draw from their
  // tenant's private space; a blend shapes the traffic only in tenant
  // mode.
  const TenancyConfig& ten = service_.tenancy;
  const TenantId tenant = client % directory_.tenant_count();
  return FleetStream(
      ten.active() ? blend_workload(ten.blend, tenant, service_.workload)
                   : service_.workload,
      directory_.tenant_pages(tenant),
      client_seeds(config_.seed, client).workload);
}

namespace {

/// The book counters under `prefix` ("service." or
/// "service.tenant.<id>."). quota_shed only exists in tenant mode.
void publish_books(MetricsRegistry& m, const std::string& prefix,
                   const ServiceTotals& b, bool tenant_mode) {
  m.counter(prefix + "submitted").add(b.submitted);
  m.counter(prefix + "accepted").add(b.accepted);
  m.counter(prefix + "shed.overflow").add(b.shed_overflow);
  m.counter(prefix + "shed.unavailable").add(b.shed_unavailable);
  if (tenant_mode) m.counter(prefix + "quota_shed").add(b.quota_shed);
  m.counter(prefix + "timed_out").add(b.timed_out);
  m.counter(prefix + "retries").add(b.retries);
  m.counter(prefix + "blocked").add(b.blocked);
  m.counter(prefix + "deadline_overruns").add(b.deadline_overruns);
}

}  // namespace

void ServiceFrontEnd::finalize_shard(const ServiceShard& shard,
                                     const std::vector<ServiceTotals>& books,
                                     std::uint64_t peak_depth,
                                     ShardCellResult& out) const {
  // Tenant rows, quota_shed and the per-tenant counters exist only in
  // tenant mode: the single-tenant default keeps the pre-tenant shape.
  const bool tenant_mode = service_.tenancy.active();
  ShardReport& rep = out.report;
  rep.shard = shard.index();
  rep.final_health = shard.health();
  rep.dead = shard.dead();
  for (const ServiceTotals& b : books) rep.totals.add(b);
  rep.peak_queue_depth = peak_depth;
  rep.outcome = shard.outcome();
  rep.journal_bytes = shard.journal_lifetime_bytes();
  rep.state_digest = shard.state_digest();
  rep.history_verified =
      service_.verify_final_state && shard.verify_accepted_history();
  rep.cache_hit_rate = shard.cache_hit_rate();
  rep.directory_verified = shard.directory_verified();

  MetricsRegistry& m = out.metrics;
  shard.publish_metrics(m);
  publish_books(m, "service.", rep.totals, tenant_mode);
  m.gauge("service.queue_depth_peak").set(static_cast<double>(peak_depth));
  if (!tenant_mode) return;
  for (TenantId t = 0; t < books.size(); ++t) {
    rep.tenants.push_back(
        TenantReport{t, books[t], directory_.tenant_pages(t)});
    publish_books(m, "service.tenant." + std::to_string(t) + ".", books[t],
                  true);
  }
}

ServiceRunResult ServiceFrontEnd::assemble(
    std::vector<ShardCellResult>& cells) const {
  ServiceRunResult result;
  result.shards.reserve(cells.size());
  std::vector<std::uint8_t> digest_bytes;
  if (service_.tenancy.active()) {
    for (TenantId t = 0; t < directory_.tenant_count(); ++t) {
      result.tenants.push_back(
          TenantReport{t, ServiceTotals{}, directory_.tenant_pages(t)});
    }
  }
  for (ShardCellResult& cell : cells) {
    const ShardReport& rep = cell.report;
    result.totals.add(rep.totals);
    // The accounting identity holds per tenant across shards exactly as
    // it does per shard and in aggregate.
    for (const TenantReport& tr : rep.tenants) {
      result.tenants[tr.tenant].totals.add(tr.totals);
    }
    result.chaos_totals.add(rep.outcome);
    for (int b = 0; b < 4; ++b) {
      digest_bytes.push_back(
          static_cast<std::uint8_t>(rep.state_digest >> (8 * b)));
    }
    result.metrics.merge_from(cell.metrics);
    result.shards.push_back(rep);
  }
  result.service_digest = crc32(digest_bytes.data(), digest_bytes.size());

  const LogHistogram* lat =
      result.metrics.find_histogram("service.request_latency_cycles");
  if (lat == nullptr) {
    lat = result.metrics.find_histogram("service.request_latency_ns");
  }
  if (lat != nullptr && lat->count() > 0) {
    result.latency_p50 = lat->quantile(0.5);
    result.latency_p99 = lat->quantile(0.99);
  }
  return result;
}

namespace {

/// One request on the wire in real-time mode.
struct RtItem {
  std::uint32_t la = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t deadline_ns = 0;  ///< 0 = none.
};

/// Client-side tallies for one (shard, tenant) lane.
struct RtClientBooks {
  ServiceTotals totals;  ///< submitted, sheds, quota_shed, retries, blocked.
  std::uint64_t peak_queue_depth = 0;
};

/// Worker-side tallies for one lane, written only by its shard's worker.
struct RtWorkerBooks {
  ServiceTotals totals;  ///< accepted, timed_out, overruns, dead sheds.
  LogHistogram latency_ns;
};

}  // namespace

ServiceRunResult ServiceFrontEnd::run_realtime() const {
  // Each shard fronts one bounded queue ("lane") per tenant, the shared
  // capacity split evenly, so a flooding tenant fills only its own lane
  // and back-pressure is tenant-local. Client flushes pay the (tenant,
  // shard) token-bucket quota before touching the lane — rejected
  // requests are quota_shed terminally. The shard worker drains its
  // lanes deficit-round-robin and commits each drain through
  // execute_batch, so journaling amortizes over the drain. The
  // single-tenant default is one lane per shard: capacity
  // queue_capacity, drains of kWorkerDrainBatch, no quota.
  const std::uint32_t shards = service_.shards;
  const TenancyConfig& ten = service_.tenancy;
  const std::uint32_t tenant_count = directory_.tenant_count();
  const std::size_t lanes = static_cast<std::size_t>(shards) * tenant_count;
  // Tenant-local back-pressure splits the shared capacity, but a lane
  // shallower than the drain batch would lock-step clients against the
  // worker, so the floor keeps each lane one drain deep.
  const std::size_t lane_capacity = std::min<std::size_t>(
      std::max<std::size_t>(service_.queue_capacity / tenant_count, 64),
      service_.queue_capacity);
  // Wall-clock efficiency wants whole-lane drains: the quantum sets the
  // *relative* DRR shares (uniform across tenants), so scaling it up to
  // the lane depth changes no share, only the drain granularity.
  const std::uint64_t rt_quantum =
      std::max<std::uint64_t>(ten.drr_quantum, lane_capacity);
  const auto lane = [tenant_count](std::uint32_t s, TenantId t) {
    return static_cast<std::size_t>(s) * tenant_count + t;
  };

  std::vector<std::unique_ptr<ServiceShard>> shard_objs;
  std::vector<std::unique_ptr<BoundedMpscQueue<RtItem>>> queues;
  shard_objs.reserve(shards);
  queues.reserve(lanes);
  const ShardParams params = shard_params();
  for (std::uint32_t s = 0; s < shards; ++s) {
    shard_objs.push_back(std::make_unique<ServiceShard>(config_, params, s));
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
      queues.push_back(
          std::make_unique<BoundedMpscQueue<RtItem>>(lane_capacity));
    }
  }

  /// Per-(shard, tenant) quota bucket; clients of one tenant contend on
  /// the gate's mutex only among themselves.
  struct QuotaGate {
    std::mutex mu;
    TokenBucket bucket;
  };
  std::vector<std::unique_ptr<QuotaGate>> gates;
  gates.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    auto g = std::make_unique<QuotaGate>();
    g->bucket = TokenBucket(ten.quota_rate, ten.quota_burst);
    gates.push_back(std::move(g));
  }

  std::vector<RtWorkerBooks> worker(lanes);
  std::mutex client_mu;
  std::vector<RtClientBooks> client_books(lanes);  ///< Under client_mu.

  const std::uint64_t t0 = now_ns();

  std::vector<std::thread> worker_threads;
  worker_threads.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    worker_threads.emplace_back([&, s] {
      ServiceShard& shard = *shard_objs[s];
      std::vector<std::uint64_t> deficit(tenant_count, 0);
      std::vector<RtItem> batch;
      std::vector<RtItem> exec_items;
      std::vector<LogicalPageAddr> exec_las;
      batch.reserve(kWorkerDrainBatch);
      exec_items.reserve(kWorkerDrainBatch);
      exec_las.reserve(kWorkerDrainBatch);

      const auto process = [&](TenantId tenant) {
        RtWorkerBooks& slot = worker[lane(s, tenant)];
        if (shard.dead()) {
          // The shard failed after these requests were queued: surface
          // the same unavailability error a pre-queue check would.
          slot.totals.shed_unavailable += batch.size();
          return;
        }
        std::uint64_t now = now_ns();
        exec_items.clear();
        exec_las.clear();
        for (const RtItem& item : batch) {
          if (item.deadline_ns != 0 && now > item.deadline_ns) {
            ++slot.totals.timed_out;
            continue;
          }
          exec_items.push_back(item);
          exec_las.push_back(LogicalPageAddr(item.la));
        }
        if (exec_las.empty()) return;
        const ShardBatchOutcome bo =
            shard.execute_batch(exec_las.data(), exec_las.size());
        now = now_ns();
        for (std::size_t p = 0; p < exec_items.size(); ++p) {
          if (p >= bo.executed) {
            ++slot.totals.shed_unavailable;
            continue;
          }
          slot.latency_ns.add(now - exec_items[p].submit_ns);
          if (exec_items[p].deadline_ns != 0 &&
              now > exec_items[p].deadline_ns) {
            ++slot.totals.deadline_overruns;
          }
          ++slot.totals.accepted;
        }
      };

      // A lone lane blocks in pop_batch while empty; several lanes are
      // polled, so an empty one never holds up the others.
      const bool poll = tenant_count > 1;
      while (true) {
        bool any = false;
        for (TenantId t = 0; t < tenant_count; ++t) {
          BoundedMpscQueue<RtItem>& q = *queues[lane(s, t)];
          deficit[t] += rt_quantum;
          const std::size_t want = static_cast<std::size_t>(
              std::min<std::uint64_t>(deficit[t], kWorkerDrainBatch));
          const std::size_t got = poll ? q.try_pop_batch(batch, want)
                                       : q.pop_batch(batch, want);
          if (got == 0) {
            deficit[t] = 0;  // DRR: an idle tenant forfeits its deficit.
            continue;
          }
          any = true;
          deficit[t] -= got;
          process(t);
        }
        if (any) continue;
        bool all_done = true;
        for (TenantId t = 0; t < tenant_count && all_done; ++t) {
          const BoundedMpscQueue<RtItem>& q = *queues[lane(s, t)];
          all_done = q.closed() && q.size() == 0;
        }
        if (all_done) break;
        std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> client_threads;
  client_threads.reserve(service_.clients);
  for (std::uint32_t c = 0; c < service_.clients; ++c) {
    client_threads.emplace_back([&, c] {
      const TenantId tenant = c % tenant_count;
      FleetStream stream = client_stream(c);
      std::vector<std::vector<RtItem>> staging(shards);
      for (auto& buf : staging) buf.reserve(kClientFlushBatch);
      std::vector<RtClientBooks> local(shards);

      const auto flush = [&](std::uint32_t s) {
        std::vector<RtItem>& buf = staging[s];
        if (buf.empty()) return;
        BoundedMpscQueue<RtItem>& q = *queues[lane(s, tenant)];
        ServiceTotals& tl = local[s].totals;
        tl.submitted += buf.size();
        ServiceShard& shard = *shard_objs[s];
        if (shard.dead()) {
          tl.shed_unavailable += buf.size();
          buf.clear();
          return;
        }
        // Quota gate: batch admission against the (tenant, shard)
        // bucket; the ungranted tail is quota_shed terminally.
        std::size_t admitted = buf.size();
        if (ten.quota_rate > 0) {
          QuotaGate& gate = *gates[lane(s, tenant)];
          std::lock_guard<std::mutex> lock(gate.mu);
          admitted = static_cast<std::size_t>(
              gate.bucket.take_up_to(buf.size(), now_ns()));
        }
        tl.quota_shed += buf.size() - admitted;
        if (admitted == 0) {
          buf.clear();
          return;
        }
        local[s].peak_queue_depth = std::max<std::uint64_t>(
            local[s].peak_queue_depth, q.size() + admitted);
        if (service_.overflow == OverflowPolicy::kBlock) {
          if (q.size() >= q.capacity()) ++tl.blocked;
          // Cannot come up short: the queue only closes after every
          // client has exited.
          q.push_batch(buf.data(), admitted);
          buf.clear();
          return;
        }
        std::size_t done = 0;
        std::uint32_t attempt = 0;
        while (done < admitted) {
          const bool unavailable =
              shard.health() == HealthState::kQuarantined;
          if (!unavailable) {
            done += q.try_push_batch(buf.data() + done, admitted - done);
            if (done == admitted) break;
          }
          if (attempt >= service_.max_retries) {
            if (unavailable) {
              tl.shed_unavailable += admitted - done;
            } else {
              tl.shed_overflow += admitted - done;
            }
            break;
          }
          ++tl.retries;
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              backoff_for(service_, attempt)));
          ++attempt;
        }
        buf.clear();
      };

      for (std::uint64_t seq = 0; seq < service_.requests_per_client;
           ++seq) {
        const std::uint32_t tla = stream.next().value();
        const auto [shard, local_la] =
            directory_.translate(tenant, tla, service_.sharding);
        const std::uint64_t submit = now_ns();
        const std::uint64_t deadline =
            service_.deadline_cycles == 0
                ? 0
                : sat_add_u64(submit, service_.deadline_cycles);
        staging[shard].push_back(RtItem{local_la, submit, deadline});
        if (staging[shard].size() >= kClientFlushBatch) flush(shard);
      }
      for (std::uint32_t s = 0; s < shards; ++s) flush(s);

      std::lock_guard<std::mutex> lock(client_mu);
      for (std::uint32_t s = 0; s < shards; ++s) {
        RtClientBooks& cb = client_books[lane(s, tenant)];
        cb.totals.add(local[s].totals);
        cb.peak_queue_depth =
            std::max(cb.peak_queue_depth, local[s].peak_queue_depth);
      }
    });
  }

  for (std::thread& t : client_threads) t.join();
  for (auto& q : queues) q->close();
  for (std::thread& t : worker_threads) t.join();

  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;

  std::vector<ShardCellResult> cells(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    LogHistogram& lat =
        cells[s].metrics.histogram("service.request_latency_ns");
    std::vector<ServiceTotals> books(tenant_count);
    std::uint64_t peak = 0;
    for (TenantId t = 0; t < tenant_count; ++t) {
      books[t] = client_books[lane(s, t)].totals;
      books[t].add(worker[lane(s, t)].totals);
      peak = std::max(peak, client_books[lane(s, t)].peak_queue_depth);
      lat.merge_from(worker[lane(s, t)].latency_ns);
    }
    finalize_shard(*shard_objs[s], books, peak, cells[s]);
  }

  ServiceRunResult result = assemble(cells);
  result.wall_seconds = wall;
  result.requests_per_second =
      wall > 0.0 ? static_cast<double>(result.totals.accepted) / wall : 0.0;
  return result;
}

}  // namespace twl
