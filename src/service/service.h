// Service front-end: live concurrent clients over sharded controllers.
//
// ServiceFrontEnd turns the batch simulator into a request-serving
// system: C seeded clients generate write traffic over tenant-scoped
// logical spaces, a sharding policy routes each request to one of S
// independent journaled MemoryController shards (service/shard.h), and
// the full robustness envelope sits between them — per-tenant quotas,
// bounded submission queues with a configurable overflow policy (block,
// or shed with an error), per-request deadlines with timeout
// accounting, bounded-exponential-backoff retry against transiently
// unavailable shards, and the per-shard health state machine fed by
// chaos injection and the retirement availability signal.
//
// Every run has a TenantDirectory (service/tenant.h); the default is one
// unlimited tenant owning the whole space. Both engines keep books per
// tenant only and sum them into shard and service totals when a shard
// finishes (finalize_shard, shared by both engines):
//
//  * run_virtual — seeded discrete-event simulation in virtual cycles,
//    a pure function of (Config, ServiceConfig): byte-identical across
//    --jobs 1 / --jobs N and across repeated runs at a fixed seed. It
//    streams arrivals through windows of virtual time
//    (service/virtual_engine.h): the clients emit every arrival due
//    before the window's end, its horizon, into per-shard buffers put in
//    (time, client) order, and one SimRunner::run_all grid advances each
//    shard's resumable engine through every event strictly before the
//    horizon; a last call with no horizon drains the shards. The
//    runner's report therefore counts shard-windows as cells. Events
//    are served in (time, client, submit, attempt) order, so no window
//    cut changes a decision. The admission gates run in order —
//    deadline, quota, health, back-pressure — and only the service
//    discipline forks on TenancyConfig::active(): the single-unlimited-
//    tenant default executes each request at admission, FIFO; tenant
//    mode queues per tenant and drains deficit-round-robin, each drain
//    one submit_write_batch group so journaling amortizes across it.
//    FIFO stays for the default because the golden digests and the
//    benchmark replay pin its output byte for byte (DESIGN.md §13).
//
//  * run_realtime — real threads: one worker per shard draining one
//    BoundedMpscQueue lane per tenant deficit-round-robin through
//    execute_batch, C client threads staging into the lanes,
//    wall-clock deadlines and backoff (virtual cycles are interpreted
//    1:1 as nanoseconds). A single tenant is one lane per shard, which
//    its worker waits on blocking. Reports sustained requests/s and
//    tail latency; not deterministic, but TSan-clean.
//
// Accounting invariant, both modes: every submitted request terminates
// in exactly one of accepted / shed (overflow or unavailable) /
// quota_shed / timed_out, so accepted + shed + quota_shed + timed_out ==
// submitted — retries and blocked waits are events along the way, not
// terminal outcomes. The identity holds per tenant, per shard and in
// aggregate. Tenant rows, quota_shed and the service.tenant.* counters
// are reported only in tenant mode, so the single-tenant report keeps
// its pre-tenant shape.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "fleet/chaos.h"
#include "fleet/journaled_stack.h"
#include "fleet/workload.h"
#include "obs/metrics.h"
#include "service/shard.h"
#include "service/tenant.h"

namespace twl {

class JsonWriter;
class SimRunner;
struct ShardCellResult;

enum class OverflowPolicy : std::uint8_t {
  kShed = 0,  ///< Full queue: fail fast, client retries then sheds.
  kBlock,     ///< Full queue: producer waits for space.
};

[[nodiscard]] std::string to_string(ShardingPolicy p);
[[nodiscard]] std::string to_string(OverflowPolicy p);
/// Throw std::invalid_argument listing the valid names on bad input.
[[nodiscard]] ShardingPolicy parse_sharding_policy(const std::string& name);
[[nodiscard]] OverflowPolicy parse_overflow_policy(const std::string& name);

/// Multi-tenant knobs. Defaults describe exactly one unlimited tenant.
struct TenancyConfig {
  std::uint32_t tenants = 1;
  TenantBlend blend = TenantBlend::kUniform;
  /// Per-tenant per-shard page budget; 0 = equal split of the shard.
  std::uint64_t quota_pages = 0;
  /// Token-bucket write-rate limit, tokens per 1000 cycles (ns in
  /// realtime) per shard; 0 = unlimited. Enforced per (tenant, shard)
  /// so shard cells stay independent — the aggregate allowance is
  /// rate * shards.
  std::uint64_t quota_rate = 0;
  std::uint64_t quota_burst = 16;  ///< Bucket capacity.
  /// Deficit-round-robin quantum: max requests one tenant drains (and
  /// batches through submit_write_batch) per turn.
  std::uint64_t drr_quantum = 16;

  /// Anything beyond the single-unlimited-tenant default is tenant mode:
  /// DRR drains in the virtual engine and per-tenant report rows. The
  /// default keeps FIFO service and the pre-tenant report shape.
  [[nodiscard]] bool active() const {
    return tenants > 1 || quota_rate > 0 || quota_pages > 0;
  }
};

struct ServiceConfig {
  std::uint32_t shards = 4;
  std::uint32_t clients = 4;
  std::uint64_t requests_per_client = 1 << 15;
  std::string scheme_spec = "TWL";
  ShardingPolicy sharding = ShardingPolicy::kHashLa;
  OverflowPolicy overflow = OverflowPolicy::kShed;
  /// Outstanding requests (queued + in service) one shard holds.
  std::uint32_t queue_capacity = 256;

  // Virtual-time request model. In real-time mode, cycle-valued knobs
  // (deadline, backoff) are interpreted 1:1 as nanoseconds.
  Cycles service_cycles = 600;     ///< Nominal per-write service time.
  Cycles mean_gap_cycles = 0;      ///< Per-client inter-arrival mean; 0 =
                                   ///< closed-loop back-to-back.
  Cycles deadline_cycles = 0;      ///< Per-request deadline; 0 = none.
  std::uint32_t max_retries = 3;   ///< Against unavailable/full shards.
  Cycles backoff_base_cycles = 2000;
  Cycles backoff_cap_cycles = 16000;

  // Health state machine timing.
  Cycles quarantine_cycles = 2000;
  Cycles recovery_base_cycles = 8000;
  Cycles recovery_per_replay_cycles = 50;
  std::uint64_t degraded_window_writes = 128;

  std::uint64_t snapshot_interval_writes = 4096;
  FleetWorkload workload{};
  TenancyConfig tenancy{};
  ChaosProfile chaos{};
  /// Hybrid backend only: shards whose DRAM cache hit rate sits below
  /// this floor are held degraded (0 = gate disabled).
  double min_cache_hit_rate = 0.0;
  /// Keep the full accepted history per shard and prove zero
  /// accepted-write loss by whole-run replay at finalization.
  bool verify_final_state = false;

  /// Throws std::invalid_argument on nonsense (zero shards/clients/
  /// capacity, chaos combined with the fault model, ...).
  void validate(const Config& config) const;
};

/// Terminal-outcome and event tallies, per shard and service-wide.
struct ServiceTotals {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_overflow = 0;
  std::uint64_t shed_unavailable = 0;
  /// Rejected by the tenant's token-bucket rate quota — a policy
  /// outcome, deliberately distinct from back-pressure sheds.
  std::uint64_t quota_shed = 0;
  std::uint64_t timed_out = 0;
  // Non-terminal events.
  std::uint64_t retries = 0;
  std::uint64_t blocked = 0;
  /// Accepted, but completed past the deadline because a crash recovery
  /// extended the in-service time.
  std::uint64_t deadline_overruns = 0;

  [[nodiscard]] bool accounting_exact() const {
    return accepted + shed_overflow + shed_unavailable + quota_shed +
               timed_out ==
           submitted;
  }

  void add(const ServiceTotals& o) {
    submitted += o.submitted;
    accepted += o.accepted;
    shed_overflow += o.shed_overflow;
    shed_unavailable += o.shed_unavailable;
    quota_shed += o.quota_shed;
    timed_out += o.timed_out;
    retries += o.retries;
    blocked += o.blocked;
    deadline_overruns += o.deadline_overruns;
  }

  friend bool operator==(const ServiceTotals&,
                         const ServiceTotals&) = default;
};

/// One tenant's aggregate slice of a run (or of one shard's traffic).
struct TenantReport {
  TenantId tenant = 0;
  ServiceTotals totals;
  /// Size of the tenant's private logical space (pages).
  std::uint64_t pages = 0;

  friend bool operator==(const TenantReport&, const TenantReport&) = default;
};

struct ShardReport {
  std::uint32_t shard = 0;
  HealthState final_health = HealthState::kHealthy;
  bool dead = false;
  ServiceTotals totals;  ///< This shard's slice of the traffic.
  std::uint64_t peak_queue_depth = 0;
  DeviceOutcome outcome;  ///< Chaos / recovery tallies.
  std::uint64_t journal_bytes = 0;
  std::uint32_t state_digest = 0;
  /// verify_final_state only: whole-history replay matched byte-exactly.
  bool history_verified = false;
  /// Tenant mode only: this shard's per-tenant books (empty otherwise).
  std::vector<TenantReport> tenants;
  /// Hybrid backend only: DRAM cache hit rate at finalization; negative
  /// when the backend has no cache.
  double cache_hit_rate = -1.0;
  /// Tenant mode only: the directory survived crash recovery intact on
  /// this shard (trivially true without chaos).
  bool directory_verified = true;

  friend bool operator==(const ShardReport&, const ShardReport&) = default;
};

struct ServiceRunResult {
  std::vector<ShardReport> shards;
  ServiceTotals totals;
  /// Tenant mode only: aggregate per-tenant books across all shards
  /// (empty in the single-tenant default, keeping output bit-identical).
  std::vector<TenantReport> tenants;
  DeviceOutcome chaos_totals;
  /// CRC-32 over per-shard state digests: the byte-identity fingerprint.
  std::uint32_t service_digest = 0;
  /// Merged per-shard registries (commutative contract) plus service-wide
  /// instruments: counters for every ServiceTotals field, the
  /// service.request_latency histogram, queue-depth gauge/histogram.
  MetricsRegistry metrics;
  double latency_p50 = 0.0;  ///< Cycles (virtual) / ns (real-time).
  double latency_p99 = 0.0;
  // Real-time mode only (0 in virtual mode).
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;  ///< Accepted / wall.

  /// One JSON object for twl-report/1 embedding.
  void write_json(JsonWriter& w) const;

  friend bool operator==(const ServiceRunResult&,
                         const ServiceRunResult&) = default;
};

class ServiceFrontEnd {
 public:
  /// Validates both configs (throws std::invalid_argument).
  ServiceFrontEnd(const Config& config, const ServiceConfig& service);

  /// (shard, shard-local logical page) for a page of the full logical
  /// space (shards * local pages), i.e. tenant 0's translation. With
  /// kHashLa two global pages in the same S-aligned block can share a
  /// local frame on one shard; the simulator stores no payloads, so
  /// aliasing only shapes the per-shard workload and is benign.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> route(
      std::uint32_t global_la) const;

  /// Tenant-scoped routing: (shard, shard-local page) for a request.
  /// Reduces to route(r.la) when the directory holds one full-space
  /// tenant. r.la must be < directory().tenant_pages(r.tenant).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> route_request(
      const ServiceRequest& r) const {
    return directory_.translate(r.tenant, r.la, service_.sharding);
  }

  [[nodiscard]] const TenantDirectory& directory() const {
    return directory_;
  }

  /// Global logical pages clients draw from: shards * local pages.
  [[nodiscard]] std::uint64_t global_pages() const { return global_pages_; }
  [[nodiscard]] std::uint64_t local_pages() const { return local_pages_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const ServiceConfig& service_config() const {
    return service_;
  }

  /// Deterministic discrete-event run; each window's shards are
  /// SimRunner cells.
  [[nodiscard]] ServiceRunResult run_virtual(SimRunner& runner) const;

  /// Threaded run: one worker per shard + `clients` client threads.
  [[nodiscard]] ServiceRunResult run_realtime() const;

 private:
  // The virtual engine (service/virtual_engine.h).
  friend class ArrivalGenerator;
  friend class ShardEngine;

  [[nodiscard]] ShardParams shard_params() const;
  /// Client c's request stream over its tenant's private space.
  [[nodiscard]] FleetStream client_stream(std::uint32_t client) const;
  /// Sums per-tenant `books` into the ShardReport and publishes the
  /// shard's metrics; shared by both engines.
  void finalize_shard(const ServiceShard& shard,
                      const std::vector<ServiceTotals>& books,
                      std::uint64_t peak_depth, ShardCellResult& out) const;
  [[nodiscard]] ServiceRunResult assemble(
      std::vector<ShardCellResult>& cells) const;

  Config config_;
  ServiceConfig service_;
  std::uint64_t local_pages_ = 0;
  std::uint64_t global_pages_ = 0;
  TenantDirectory directory_;
};

}  // namespace twl
