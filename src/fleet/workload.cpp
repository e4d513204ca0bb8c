#include "fleet/workload.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"
#include "trace/synthetic.h"

namespace twl {

std::string to_string(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kZipf:
      return "zipf";
    case WorkloadKind::kRepeat:
      return "repeat";
    case WorkloadKind::kScan:
      return "scan";
    case WorkloadKind::kRandom:
      return "random";
    case WorkloadKind::kInconsistentAttack:
      return "inconsistent-attack";
    case WorkloadKind::kInodeTable:
      return "inode-table";
    case WorkloadKind::kJournalPages:
      return "journal-pages";
    case WorkloadKind::kMultiTenant:
      return "multi-tenant";
  }
  return "unknown";
}

FleetStream::FleetStream(const FleetWorkload& workload,
                         std::uint64_t logical_pages, std::uint64_t seed)
    : workload_(workload), pages_(logical_pages) {
  assert(pages_ > 0);
  switch (workload_.kind) {
    case WorkloadKind::kZipf: {
      SyntheticParams sp;
      sp.pages = pages_;
      sp.zipf_s = workload_.zipf_s;
      sp.stream_frac = workload_.stream_frac;
      sp.read_frac = 0.0;  // Reads touch no wear-leveling metadata.
      sp.seed = seed;
      zipf_ = std::make_unique<SyntheticTrace>(sp, "fleet");
      break;
    }
    case WorkloadKind::kScan:
    case WorkloadKind::kJournalPages:
      break;  // Position alone determines the address.
    case WorkloadKind::kRandom:
    case WorkloadKind::kInodeTable:
      rng_ = std::make_unique<XorShift64Star>(seed);
      break;
    case WorkloadKind::kRepeat:
    case WorkloadKind::kInconsistentAttack:
    case WorkloadKind::kMultiTenant: {
      // kMultiTenant confines the attacked set to the hostile tenant's
      // private slice (the leading eighth); the other kinds spread it
      // evenly over the whole space so the addresses land in distinct
      // regions/pairs of every scheme.
      const std::uint64_t space =
          workload_.kind == WorkloadKind::kMultiTenant
              ? std::max<std::uint64_t>(1, pages_ / 8)
              : pages_;
      const std::uint32_t n =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(
              std::max<std::uint32_t>(workload_.attack_addrs, 1), space));
      attack_set_.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        attack_set_.push_back(
            static_cast<std::uint32_t>((space * i) / n));
      }
      if (workload_.kind != WorkloadKind::kRepeat) {
        rng_ = std::make_unique<XorShift64Star>(seed);
        weights_.assign(n, workload_.mid_weight);
        weights_.front() = 1;
        weights_.back() = workload_.heavy_weight;
        for (std::uint64_t w : weights_) weight_total_ += w;
      }
      if (workload_.kind == WorkloadKind::kMultiTenant) {
        SyntheticParams sp;
        sp.pages = pages_;
        sp.zipf_s = workload_.zipf_s;
        sp.stream_frac = workload_.stream_frac;
        sp.read_frac = 0.0;
        sp.seed = seed ^ 0x7E4A'4000'0000'0001ULL;
        zipf_ = std::make_unique<SyntheticTrace>(sp, "fleet-bg");
      }
      break;
    }
  }
}

FleetStream::~FleetStream() = default;
FleetStream::FleetStream(FleetStream&&) noexcept = default;
FleetStream& FleetStream::operator=(FleetStream&&) noexcept = default;

LogicalPageAddr FleetStream::generate() {
  switch (workload_.kind) {
    case WorkloadKind::kZipf:
      return LogicalPageAddr(
          static_cast<std::uint32_t>(zipf_->next_write().value() % pages_));
    case WorkloadKind::kScan:
      return LogicalPageAddr(
          static_cast<std::uint32_t>(consumed_ % pages_));
    case WorkloadKind::kRandom:
      return LogicalPageAddr(
          static_cast<std::uint32_t>(rng_->next_below(pages_)));
    case WorkloadKind::kRepeat:
      return LogicalPageAddr(
          attack_set_[consumed_ % attack_set_.size()]);
    case WorkloadKind::kInconsistentAttack: {
      // Which end of the set carries the heavy weight flips each phase.
      const bool reversed =
          (consumed_ / workload_.flip_interval) % 2 == 1;
      std::uint64_t pick = rng_->next_below(weight_total_);
      std::size_t idx = 0;
      while (pick >= weights_[idx]) {
        pick -= weights_[idx];
        ++idx;
      }
      if (reversed) idx = attack_set_.size() - 1 - idx;
      return LogicalPageAddr(attack_set_[idx]);
    }
    case WorkloadKind::kInodeTable: {
      // At least 8 pages (or the whole space when smaller) so the scaled
      // fleet devices still see a region, not a single hammered page.
      const std::uint64_t region = std::max<std::uint64_t>(
          std::min<std::uint64_t>(8, pages_), pages_ / 64);
      if (consumed_ % 8 == 7) {
        // Allocation-bitmap refresh: the last page of the inode region.
        return LogicalPageAddr(static_cast<std::uint32_t>(region - 1));
      }
      // Low inode numbers churn hardest; min of two uniform draws skews
      // the mass toward the front of the table.
      const std::uint64_t a = rng_->next_below(region);
      const std::uint64_t b = rng_->next_below(region);
      return LogicalPageAddr(static_cast<std::uint32_t>(std::min(a, b)));
    }
    case WorkloadKind::kJournalPages: {
      const std::uint64_t journal =
          std::max<std::uint64_t>(2, pages_ / 32);
      if (consumed_ % 4 == 3) {
        return LogicalPageAddr(0);  // Commit record.
      }
      const std::uint64_t body = consumed_ - consumed_ / 4;
      return LogicalPageAddr(
          static_cast<std::uint32_t>(1 + body % (journal - 1)));
    }
    case WorkloadKind::kMultiTenant: {
      const std::uint64_t slice = std::max<std::uint64_t>(1, pages_ / 8);
      if (consumed_ % 4 == 3) {
        // The hostile tenant's turn: the phase-reversing skewed pick,
        // confined to its slice.
        const bool reversed =
            (consumed_ / workload_.flip_interval) % 2 == 1;
        std::uint64_t pick = rng_->next_below(weight_total_);
        std::size_t idx = 0;
        while (pick >= weights_[idx]) {
          pick -= weights_[idx];
          ++idx;
        }
        if (reversed) idx = attack_set_.size() - 1 - idx;
        return LogicalPageAddr(attack_set_[idx]);
      }
      // Background tenants: zipf traffic folded into the rest of the
      // space (the whole space when the device is a single slice).
      const std::uint64_t span = pages_ - slice;
      const std::uint32_t la = zipf_->next_write().value();
      if (span == 0) {
        return LogicalPageAddr(static_cast<std::uint32_t>(la % pages_));
      }
      return LogicalPageAddr(static_cast<std::uint32_t>(slice + la % span));
    }
  }
  return LogicalPageAddr(0);
}

LogicalPageAddr FleetStream::next() {
  const LogicalPageAddr la = generate();
  ++consumed_;
  return la;
}

void FleetStream::skip(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) (void)next();
}

}  // namespace twl
