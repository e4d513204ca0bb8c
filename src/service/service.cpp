#include "service/service.h"

#include <stdexcept>
#include <utility>

#include "common/checksum.h"
#include "common/names.h"
#include "service/virtual_engine.h"
#include "wl/factory.h"
#include "wl/wear_leveler.h"

namespace twl {

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
  if (lat != nullptr && lat->count() > 0) {
    result.latency_p50 = lat->quantile(0.5);
    result.latency_p99 = lat->quantile(0.99);
  }
  return result;
}

}  // namespace twl
