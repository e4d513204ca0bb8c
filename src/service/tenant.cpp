#include "service/tenant.h"

#include <stdexcept>

#include "common/checksum.h"
#include "common/names.h"
#include "common/rng.h"
#include "recovery/snapshot.h"

namespace twl {

namespace {

/// 'TDR1' — tenant directory wire format, version 1.
constexpr std::uint32_t kDirectoryMagic = 0x54445231u;
constexpr std::uint16_t kDirectoryVersion = 1;

/// Salted mix for hash sharding: a plain modulo of the raw address would
/// collapse to kModuloLa.
std::uint32_t mix_la(std::uint32_t la) {
  return static_cast<std::uint32_t>(
      SplitMix64(0x5A1D'0000'0000'0000ULL ^ la).next());
}

}  // namespace

std::string to_string(TenantBlend b) {
  switch (b) {
    case TenantBlend::kUniform:
      return "uniform";
    case TenantBlend::kHostile:
      return "hostile";
    case TenantBlend::kHammer:
      return "hammer";
  }
  return "unknown";
}

const std::string& valid_tenant_blend_names() {
  static const std::string names = "uniform, hostile, hammer";
  return names;
}

TenantBlend parse_tenant_blend(const std::string& name) {
  if (name == "uniform") return TenantBlend::kUniform;
  if (name == "hostile") return TenantBlend::kHostile;
  if (name == "hammer") return TenantBlend::kHammer;
  throw_unknown_name("tenant blend", name, valid_tenant_blend_names());
}

FleetWorkload blend_workload(TenantBlend blend, TenantId tenant,
                             const FleetWorkload& base) {
  FleetWorkload w = base;
  switch (blend) {
    case TenantBlend::kUniform:
      break;
    case TenantBlend::kHostile:
      // Tenant 0 mounts the paper's inconsistent write pattern; everyone
      // else is ordinary zipf background traffic.
      w.kind = tenant == 0 ? WorkloadKind::kInconsistentAttack
                           : WorkloadKind::kZipf;
      break;
    case TenantBlend::kHammer:
      w.kind = tenant == 0 ? WorkloadKind::kRepeat : WorkloadKind::kZipf;
      break;
  }
  return w;
}

// ---------------------------------------------------------------------------
// TenantDirectory.

TenantDirectory TenantDirectory::carve(
    std::uint64_t local_pages, std::uint32_t shards,
    const std::vector<std::uint64_t>& budgets) {
  if (shards == 0 || budgets.empty()) {
    throw std::invalid_argument(
        "tenant directory: need at least one shard and one tenant");
  }
  // Each budget is checked against what the earlier ones left, so no
  // sum of budgets can wrap.
  std::uint64_t left = local_pages;
  std::uint64_t zero_budget = 0;
  for (std::size_t t = 0; t < budgets.size(); ++t) {
    if (budgets[t] == 0) {
      ++zero_budget;
    } else if (budgets[t] > left) {
      throw std::invalid_argument(
          "tenant directory: page budgets oversubscribe the shard (tenant " +
          std::to_string(t) + " asks for " + std::to_string(budgets[t]) +
          " pages, " + std::to_string(left) + " of " +
          std::to_string(local_pages) + " local pages left)");
    } else {
      left -= budgets[t];
    }
  }
  const std::uint64_t share = zero_budget == 0 ? 0 : left / zero_budget;

  TenantDirectory d;
  d.shards_ = shards;
  d.local_pages_ = local_pages;
  d.base_.reserve(budgets.size());
  d.span_.reserve(budgets.size());
  std::uint64_t next_base = 0;
  for (std::size_t t = 0; t < budgets.size(); ++t) {
    const std::uint64_t span = budgets[t] == 0 ? share : budgets[t];
    if (span == 0) {
      throw std::invalid_argument("tenant directory: tenant " +
                                  std::to_string(t) +
                                  " would own zero pages");
    }
    d.base_.push_back(next_base);
    d.span_.push_back(span);
    next_base += span;
  }
  return d;
}

std::pair<std::uint32_t, std::uint32_t> TenantDirectory::translate(
    TenantId tenant, std::uint32_t tenant_la, ShardingPolicy policy) const {
  std::uint32_t shard = 0;
  switch (policy) {
    case ShardingPolicy::kHashLa:
      shard = mix_la(tenant_la) % shards_;
      break;
    case ShardingPolicy::kModuloLa:
      shard = tenant_la % shards_;
      break;
  }
  const std::uint64_t local = base_[tenant] + tenant_la / shards_;
  return {shard, static_cast<std::uint32_t>(local)};
}

void TenantDirectory::save_state(SnapshotWriter& w) const {
  SnapshotWriter payload;
  payload.put_u32(kDirectoryMagic);
  payload.put_u16(kDirectoryVersion);
  payload.put_u32(shards_);
  payload.put_u64(local_pages_);
  payload.put_u64_vec(base_);
  payload.put_u64_vec(span_);
  const std::vector<std::uint8_t> body = payload.take();
  const std::uint32_t crc = crc32(body.data(), body.size());
  for (const std::uint8_t b : body) w.put_u8(b);
  w.put_u32(crc);
}

void TenantDirectory::load_state(SnapshotReader& r) {
  // Re-serialize the fields as they are read so the CRC covers the exact
  // bytes the writer sealed.
  SnapshotWriter echo;
  const std::uint32_t magic = r.get_u32();
  if (magic != kDirectoryMagic) {
    throw SnapshotError("tenant directory: bad magic");
  }
  echo.put_u32(magic);
  const std::uint16_t version = r.get_u16();
  if (version != kDirectoryVersion) {
    throw SnapshotError("tenant directory: unsupported version " +
                        std::to_string(version));
  }
  echo.put_u16(version);
  const std::uint32_t shards = r.get_u32();
  echo.put_u32(shards);
  const std::uint64_t local_pages = r.get_u64();
  echo.put_u64(local_pages);
  std::vector<std::uint64_t> base = r.get_u64_vec();
  echo.put_u64_vec(base);
  std::vector<std::uint64_t> span = r.get_u64_vec();
  echo.put_u64_vec(span);
  const std::uint32_t stored_crc = r.get_u32();
  const std::uint32_t computed =
      crc32(echo.bytes().data(), echo.bytes().size());
  if (stored_crc != computed) {
    throw SnapshotError("tenant directory: CRC mismatch");
  }
  if (shards == 0 || base.size() != span.size() || base.empty()) {
    throw SnapshotError("tenant directory: inconsistent structure");
  }
  // Structural validation: spans must be disjoint, in order, in range.
  // Each span is checked against what is left of the local pages, so no
  // sum of spans can wrap.
  std::uint64_t expect_base = 0;
  for (std::size_t t = 0; t < base.size(); ++t) {
    if (base[t] != expect_base || span[t] == 0) {
      throw SnapshotError("tenant directory: malformed span table");
    }
    if (span[t] > local_pages - expect_base) {
      throw SnapshotError("tenant directory: spans exceed local pages");
    }
    expect_base += span[t];
  }
  shards_ = shards;
  local_pages_ = local_pages;
  base_ = std::move(base);
  span_ = std::move(span);
}

std::vector<std::uint8_t> TenantDirectory::serialize() const {
  return state_blob(*this);
}

TenantDirectory TenantDirectory::deserialize(
    const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  TenantDirectory d;
  d.load_state(r);
  if (!r.exhausted()) {
    throw SnapshotError("tenant directory: trailing bytes");
  }
  return d;
}

// ---------------------------------------------------------------------------
// TokenBucket.

void TokenBucket::refill(Cycles now) {
  if (now <= last_) return;  // No time has passed.
  const Cycles delta = now - last_;
  last_ = now;
  std::uint64_t numerator = 0;
  std::uint64_t whole = 0;
  if (__builtin_mul_overflow(delta, rate_, &numerator) ||
      __builtin_add_overflow(numerator, carry_, &numerator)) [[unlikely]] {
    // The credit outgrows 64 bits: take it exactly in 128. More whole
    // tokens than the burst would all be discarded below anyway.
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(delta) * rate_ + carry_;
    carry_ = static_cast<std::uint64_t>(wide % 1000);
    whole = wide / 1000 > burst_ ? burst_
                                 : static_cast<std::uint64_t>(wide / 1000);
  } else {
    carry_ = numerator % 1000;
    whole = numerator / 1000;
  }
  // Saturate at burst; excess credit is discarded (standard bucket).
  const std::uint64_t headroom = burst_ - tokens_;
  tokens_ += whole < headroom ? whole : headroom;
}

bool TokenBucket::try_take(Cycles now) {
  if (rate_ == 0) return true;  // Unlimited.
  refill(now);
  if (tokens_ == 0) return false;
  --tokens_;
  return true;
}

}  // namespace twl
