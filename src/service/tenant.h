// First-class tenants for the service front-end.
//
// A shared PCM deployment serves many tenants over one device, and the
// paper's threat model — an inconsistent write pattern concentrating
// wear — most plausibly arrives as one hostile tenant among many
// well-behaved ones. This module gives the service layer the vocabulary
// to reason about that:
//
//  * ServiceRequest — the submission unit: {TenantId, tenant-scoped
//    logical page, deadline}. Tenant address spaces are private; a
//    tenant cannot name another tenant's pages.
//  * TenantDirectory — deterministically carves each shard's local page
//    space into disjoint per-tenant spans, translates (tenant, page) to
//    (shard, shard-local page), and serializes to a versioned,
//    CRC-sealed wire format so the carve survives crash recovery.
//  * TokenBucket — deterministic integer-arithmetic write-rate limiter
//    (tokens per 1000 cycles) backing the per-tenant quota; rejections
//    are accounted as quota_shed, distinct from back-pressure sheds.
//  * TenantBlend — how a multi-tenant population shapes its traffic
//    (uniform zipf, one hostile attacker among zipf, one hammer among
//    zipf), mapped per tenant onto the existing FleetWorkload kinds.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "fleet/workload.h"

namespace twl {

class SnapshotReader;
class SnapshotWriter;

enum class ShardingPolicy : std::uint8_t {
  kHashLa = 0,  ///< shard = mix(la) % S — spreads any workload evenly.
  kModuloLa,    ///< shard = la % S — per-rank striping, locality-blind.
};

using TenantId = std::uint32_t;

/// The tenant-scoped submission unit. `la` indexes the tenant's private
/// logical space [0, TenantDirectory::tenant_pages(tenant)); `deadline`
/// is an absolute cycle, 0 = none.
struct ServiceRequest {
  TenantId tenant = 0;
  std::uint32_t la = 0;
  Cycles deadline = 0;
};

// ---------------------------------------------------------------------------
// Tenant blends.

enum class TenantBlend : std::uint8_t {
  kUniform = 0,  ///< Every tenant runs the configured base workload.
  kHostile,      ///< Tenant 0 mounts the inconsistent-write attack;
                 ///< the rest run zipf background traffic.
  kHammer,       ///< Tenant 0 hammers a tiny hot set (repeat); the rest
                 ///< run zipf background traffic.
};

[[nodiscard]] std::string to_string(TenantBlend b);
[[nodiscard]] const std::string& valid_tenant_blend_names();
/// Throws std::invalid_argument listing the valid names on bad input.
[[nodiscard]] TenantBlend parse_tenant_blend(const std::string& name);

/// The workload tenant `tenant` of a `blend` population runs, derived
/// from the service-level base workload (which supplies zipf_s etc.).
[[nodiscard]] FleetWorkload blend_workload(TenantBlend blend, TenantId tenant,
                                           const FleetWorkload& base);

// ---------------------------------------------------------------------------
// TenantDirectory.

/// Deterministic carve of each shard's local page space into disjoint
/// contiguous per-tenant spans. Tenant t owns local pages
/// [base(t), base(t) + span(t)) on *every* shard, i.e. a private global
/// space of span(t) * shards pages, striped over the shards by the
/// sharding policy. Tenant 0's span starts at local page 0.
class TenantDirectory {
 public:
  TenantDirectory() = default;

  /// Carves `local_pages` (one shard's scheme-local space) among
  /// `budgets.size()` tenants. A nonzero budget is that tenant's exact
  /// per-shard span; zero-budget tenants split the remainder equally
  /// (leftover pages from the division stay unassigned). Throws
  /// std::invalid_argument when the budgets oversubscribe the space or
  /// any tenant would end up with zero pages.
  [[nodiscard]] static TenantDirectory carve(
      std::uint64_t local_pages, std::uint32_t shards,
      const std::vector<std::uint64_t>& budgets);

  [[nodiscard]] std::uint32_t tenant_count() const {
    return static_cast<std::uint32_t>(span_.size());
  }
  [[nodiscard]] std::uint32_t shards() const { return shards_; }
  [[nodiscard]] std::uint64_t local_pages() const { return local_pages_; }
  /// First shard-local page of tenant t's span.
  [[nodiscard]] std::uint64_t base(TenantId t) const { return base_[t]; }
  /// Pages per shard owned by tenant t.
  [[nodiscard]] std::uint64_t span(TenantId t) const { return span_[t]; }
  /// Size of tenant t's private logical space (span * shards).
  [[nodiscard]] std::uint64_t tenant_pages(TenantId t) const {
    return span_[t] * shards_;
  }

  /// (shard, shard-local page) for a tenant-scoped logical page.
  /// `tenant_la` must be < tenant_pages(tenant).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> translate(
      TenantId tenant, std::uint32_t tenant_la, ShardingPolicy policy) const;

  /// Wire format (little-endian, see DESIGN.md §15): 'TDR1' magic u32,
  /// version u16, shards u32, local_pages u64, base u64-vec, span
  /// u64-vec, CRC-32 u32 over everything before it.
  void save_state(SnapshotWriter& w) const;
  /// Throws SnapshotError on bad magic/version/CRC or truncation.
  void load_state(SnapshotReader& r);

  /// save_state into a fresh buffer — the blob shards carry through
  /// crash recovery to prove the carve was restored intact.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static TenantDirectory deserialize(
      const std::vector<std::uint8_t>& bytes);

  friend bool operator==(const TenantDirectory&,
                         const TenantDirectory&) = default;

 private:
  std::uint32_t shards_ = 0;
  std::uint64_t local_pages_ = 0;
  std::vector<std::uint64_t> base_;
  std::vector<std::uint64_t> span_;
};

// ---------------------------------------------------------------------------
// TokenBucket.

/// Deterministic token bucket in pure integer arithmetic: `rate` tokens
/// per 1000 cycles, capacity `burst`. Sub-token credit accumulates in a
/// numerator carry so no precision is lost at any refill cadence — the
/// admission decision is a pure function of the observation times,
/// which is what keeps --jobs 1 == --jobs N byte-identity intact. The
/// bucket equals one computed in unbounded integers at any rate and gap.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(std::uint64_t rate_per_kcycle, std::uint64_t burst)
      : tokens_(burst), burst_(burst), rate_(rate_per_kcycle) {}

  /// Refills to `now` then takes one token if available.
  [[nodiscard]] bool try_take(Cycles now);

  [[nodiscard]] std::uint64_t tokens() const { return tokens_; }

 private:
  void refill(Cycles now);

  std::uint64_t tokens_ = 0;
  std::uint64_t burst_ = 0;
  std::uint64_t rate_ = 0;   ///< Tokens per 1000 cycles; 0 = unlimited.
  std::uint64_t carry_ = 0;  ///< Sub-token credit numerator (< 1000).
  Cycles last_ = 0;
};

}  // namespace twl
