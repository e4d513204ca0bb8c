#include "wl/security_refresh.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "recovery/snapshot.h"

namespace twl {

SrRegionState::SrRegionState(std::uint32_t size, XorShift64Star& rng)
    : size_(size), mask_(size - 1) {
  assert(size > 0 && std::has_single_bit(size));
  k0_ = static_cast<std::uint32_t>(rng.next()) & mask_;
  k1_ = static_cast<std::uint32_t>(rng.next()) & mask_;
}

bool SrRegionState::refreshed(std::uint32_t ma) const {
  const std::uint32_t partner = ma ^ k0_ ^ k1_;
  return std::min(ma, partner) < rp_;
}

std::uint32_t SrRegionState::remap(std::uint32_t ma) const {
  assert(ma < size_);
  return ma ^ (refreshed(ma) ? k1_ : k0_);
}

SrRegionState::RefreshStep SrRegionState::next_refresh() const {
  const std::uint32_t ma = rp_;
  assert(ma < size_);
  const std::uint32_t partner = ma ^ k0_ ^ k1_;
  if (partner <= ma) {
    // Same address (k0 == k1) or the pair was already swapped when the
    // pointer passed the partner.
    return {ma, ma};
  }
  return {ma ^ k0_, ma ^ k1_};
}

void SrRegionState::commit_refresh(XorShift64Star& rng) {
  if (++rp_ == size_) {
    k0_ = k1_;
    k1_ = static_cast<std::uint32_t>(rng.next()) & mask_;
    rp_ = 0;
  }
}

void SrRegionState::save_state(SnapshotWriter& w) const {
  w.put_u32(k0_);
  w.put_u32(k1_);
  w.put_u32(rp_);
}

void SrRegionState::load_state(SnapshotReader& r) {
  k0_ = r.get_u32();
  k1_ = r.get_u32();
  rp_ = r.get_u32();
  if ((k0_ & ~mask_) != 0 || (k1_ & ~mask_) != 0 || rp_ >= size_) {
    throw SnapshotError("security-refresh region state out of range");
  }
}

namespace {

std::uint32_t largest_pow2_region(std::uint64_t pages,
                                  std::uint32_t requested) {
  std::uint32_t r = static_cast<std::uint32_t>(
      std::bit_floor(std::min<std::uint64_t>(requested, pages)));
  // Shrink until it divides the device evenly.
  while (r > 1 && pages % r != 0) r >>= 1;
  return std::max<std::uint32_t>(r, 1);
}

}  // namespace

SecurityRefresh::SecurityRefresh(std::uint64_t pages, const SrParams& params,
                                 std::uint64_t seed)
    : pages_(pages),
      region_size_(largest_pow2_region(pages, params.region_pages)),
      regions_(static_cast<std::uint32_t>(pages / region_size_)),
      inner_interval_(params.refresh_interval),
      rng_(seed ^ 0x5EC0'0017ULL) {
  assert(pages_ % region_size_ == 0);
  // The mapping works on 32-bit intermediate addresses (and
  // PhysicalPageAddr is 32-bit): a larger device would truncate region
  // indices and alias distinct pages.
  if (pages_ > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "SecurityRefresh: " + std::to_string(pages_) +
        " pages exceeds the 32-bit physical address space");
  }

  if (params.auto_scale_to_endurance) {
    // Under a hammer attack all of a region's traffic lands on the hot
    // address's 1-2 physical homes per re-key round, so wear arrives in
    // quanta of ~region*interval/2 writes per page. The real system keeps
    // that quantum tiny (4096*128/2 = 2.6e-3 of E=1e8); a scaled device
    // must preserve region*interval <~ E/100 or hammered pages die inside
    // a single round. Shrink the region first (cheap), then the interval
    // (costs refresh-write overhead).
    const double e = params.endurance_mean_hint;
    const double budget = std::max(16.0, e / 100.0);  // region * interval.
    // Prefer the requested interval with a smaller region; when even that
    // cannot fit the budget, fall back to a balanced split (region ~
    // interval ~ sqrt(budget)) so neither the refresh overhead (2/interval)
    // nor the wear quantum explodes.
    const double unbalanced = budget / params.refresh_interval;
    const double target_region =
        std::max(4.0, std::max(unbalanced, std::sqrt(budget)));
    const auto region_cap = static_cast<std::uint32_t>(
        std::bit_floor(static_cast<std::uint64_t>(target_region)));
    if (region_cap < region_size_) {
      region_size_ = largest_pow2_region(pages, region_cap);
      regions_ = static_cast<std::uint32_t>(pages / region_size_);
    }
    const auto interval_cap = static_cast<std::uint32_t>(
        std::max(1.0, budget / region_size_));
    inner_interval_ = std::min(inner_interval_, interval_cap);
  }
  inner_interval_ = std::max<std::uint32_t>(inner_interval_, 1);

  inner_.reserve(regions_);
  for (std::uint32_t r = 0; r < regions_; ++r) {
    inner_.emplace_back(region_size_, rng_);
  }
  inner_writes_.assign(regions_, 0);

  if (params.two_level && regions_ > 1 &&
      std::has_single_bit(static_cast<std::uint64_t>(pages_))) {
    outer_.emplace_back(static_cast<std::uint32_t>(pages_), rng_);
    // Device-scope version of the same criterion: traffic pinned in one
    // region deposits ~pages*interval/(2*region) writes per page between
    // outer re-keys; keep that under ~E/30.
    const double e = params.endurance_mean_hint;
    outer_interval_ = static_cast<std::uint64_t>(std::max(
        2.0, region_size_ * e / (30.0 * static_cast<double>(pages_))));
  }
}

PhysicalPageAddr SecurityRefresh::phys_of_intermediate(
    std::uint32_t x) const {
  const std::uint32_t region = x / region_size_;
  const std::uint32_t offset = x % region_size_;
  return PhysicalPageAddr(region * region_size_ +
                          inner_[region].remap(offset));
}

PhysicalPageAddr SecurityRefresh::map_read(LogicalPageAddr la) const {
  assert(la.value() < pages_);
  const std::uint32_t x =
      outer_.empty() ? la.value() : outer_[0].remap(la.value());
  return phys_of_intermediate(x);
}

void SecurityRefresh::inner_refresh(std::uint32_t region, WriteSink& sink) {
  const auto step = inner_[region].next_refresh();
  if (!step.is_noop()) {
    const std::uint32_t base = region * region_size_;
    sink.swap_pages(PhysicalPageAddr(base + step.pa_from),
                    PhysicalPageAddr(base + step.pa_to),
                    WritePurpose::kRefreshSwap);
    ++refresh_swaps_;
  }
  inner_[region].commit_refresh(rng_);
}

void SecurityRefresh::outer_refresh(WriteSink& sink) {
  // The step's two intermediate addresses exchange backing pages; the
  // inner layers underneath are untouched.
  const auto step = outer_[0].next_refresh();
  if (!step.is_noop()) {
    sink.swap_pages(phys_of_intermediate(step.pa_from),
                    phys_of_intermediate(step.pa_to),
                    WritePurpose::kRefreshSwap);
    ++outer_swaps_;
  }
  outer_[0].commit_refresh(rng_);
}

void SecurityRefresh::write(LogicalPageAddr la, WriteSink& sink) {
  const std::uint32_t x =
      outer_.empty() ? la.value() : outer_[0].remap(la.value());
  const std::uint32_t region = x / region_size_;

  sink.demand_write(phys_of_intermediate(x), la);

  // Compare-and-reset rather than `++count % interval`: the per-region
  // counters are 32-bit, and on a multi-year horizon a region can absorb
  // more than 2^32 writes. A raw modulo counter wraps to 0 mid-cadence —
  // for non-power-of-two intervals the refresh then fires after the
  // wrong number of writes (including twice in a row). Reset-at-fire
  // keeps the counter bounded by the interval, so it can never wrap.
  // (A counter loaded from an older snapshot may exceed the interval;
  // >= fires the overdue refresh on the next write and re-synchronizes.)
  if (++inner_writes_[region] >= inner_interval_) {
    inner_writes_[region] = 0;
    inner_refresh(region, sink);
  }
  if (!outer_.empty() && ++outer_writes_since_refresh_ >= outer_interval_) {
    outer_writes_since_refresh_ = 0;
    outer_refresh(sink);
  }
  ++outer_writes_;
}

bool SecurityRefresh::invariants_hold() const {
  std::vector<bool> used(pages_, false);
  for (std::uint32_t la = 0; la < pages_; ++la) {
    const std::uint32_t pa = map_read(LogicalPageAddr(la)).value();
    if (pa >= pages_ || used[pa]) return false;
    used[pa] = true;
  }
  return true;
}

void SecurityRefresh::save_state(SnapshotWriter& w) const {
  w.put_u64(regions_);
  w.put_u64(outer_.size());
  rng_.save_state(w);
  for (const SrRegionState& region : inner_) region.save_state(w);
  w.put_u32_vec(inner_writes_);
  for (const SrRegionState& region : outer_) region.save_state(w);
  w.put_u64(outer_writes_);
  w.put_u64(refresh_swaps_);
  w.put_u64(outer_swaps_);
}

void SecurityRefresh::load_state(SnapshotReader& r) {
  r.expect_u64(regions_, "sr.regions");
  r.expect_u64(outer_.size(), "sr.outer_levels");
  rng_.load_state(r);
  for (SrRegionState& region : inner_) region.load_state(r);
  const std::vector<std::uint32_t> writes = r.get_u32_vec();
  if (writes.size() != inner_writes_.size()) {
    throw SnapshotError("sr inner write counter count mismatch");
  }
  inner_writes_ = writes;
  for (SrRegionState& region : outer_) region.load_state(r);
  outer_writes_ = r.get_u64();
  outer_writes_since_refresh_ =
      outer_.empty() ? 0 : outer_writes_ % outer_interval_;
  refresh_swaps_ = r.get_u64();
  outer_swaps_ = r.get_u64();
}

void SecurityRefresh::append_stats(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("refresh_swaps", static_cast<double>(refresh_swaps_));
  out.emplace_back("outer_swaps", static_cast<double>(outer_swaps_));
  out.emplace_back("regions", static_cast<double>(regions_));
  out.emplace_back("region_size", static_cast<double>(region_size_));
  out.emplace_back("inner_interval", static_cast<double>(inner_interval_));
  out.emplace_back("outer_interval", static_cast<double>(outer_interval_));
}

}  // namespace twl
