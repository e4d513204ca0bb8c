#include "wl/bloom_wl.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "recovery/snapshot.h"

namespace twl {

BloomWl::BloomWl(const EnduranceMap& endurance, const BwlParams& params,
                 std::uint32_t et_entry_bits, std::uint64_t seed)
    : rt_(endurance.pages()),
      et_(endurance, et_entry_bits),
      hot_filter_(params.filter_bits, params.num_hashes, seed ^ 0x1407ULL),
      swapped_filter_(params.filter_bits, params.num_hashes,
                      seed ^ 0x2C01DULL),
      params_(params),
      pa_writes_(endurance.pages(), 0),
      hot_threshold_(params.hot_threshold),
      epoch_len_(params.epoch_writes) {}

std::int64_t BloomWl::headroom(PhysicalPageAddr pa) const {
  return static_cast<std::int64_t>(et_.endurance(pa)) -
         static_cast<std::int64_t>(pa_writes_[pa.value()]);
}

void BloomWl::write(LogicalPageAddr la, WriteSink& sink) {
  // Two bloom filters and the hot/cold list are touched on every write
  // (Section 5.3's explanation of BWL's timing overhead).
  sink.engine_delay(3 * 10);
  hot_filter_.increment(la);

  const PhysicalPageAddr pa = rt_.to_physical(la);
  sink.demand_write(pa, la);
  ++pa_writes_[pa.value()];

  if (++epoch_progress_ >= epoch_len_) {
    end_of_epoch(sink);
    epoch_progress_ = 0;
  }
}

void BloomWl::end_of_epoch(WriteSink& sink) {
  ++epochs_;
  const std::uint64_t n = rt_.pages();
  const std::uint32_t k = params_.swap_top_k;

  // Classify from the filter estimates. (Hardware keeps a small hot/cold
  // list updated on the fly; the end-of-epoch scan here is its software
  // equivalent and touches no device state.)
  std::vector<std::pair<std::uint32_t, LogicalPageAddr>> hot;
  std::vector<std::pair<std::uint32_t, LogicalPageAddr>> cold;
  for (std::uint32_t i = 0; i < n; ++i) {
    const LogicalPageAddr la(i);
    const std::uint32_t est = hot_filter_.estimate(la);
    if (est >= hot_threshold_ && swapped_filter_.estimate(la) == 0) {
      hot.emplace_back(est, la);
    } else {
      cold.emplace_back(est, la);
    }
  }
  std::stable_sort(hot.begin(), hot.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  // Coldest first: the predicted-coldest pages are parked on the weakest
  // cells (Figure 1(c): data4 lands on weak PA1). Only the bottom-k
  // actually move; this full ranking is what the inconsistent attack
  // baits. `cold_threshold` keeps clearly-warm pages out of the bottom-k
  // so a uniformly-warm workload parks nothing.
  std::stable_sort(cold.begin(), cold.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // A page only counts as cold if it sits below half the epoch's mean
  // per-page write rate (the "dynamic threshold" of the original scheme):
  // a uniformly warm workload parks nothing, while a workload with a real
  // cold tail parks exactly that tail.
  const auto cold_cut =
      static_cast<std::uint32_t>(epoch_len_ / (2 * n));
  while (!cold.empty() && cold.back().first > cold_cut) {
    cold.pop_back();
  }

  std::vector<PhysicalPageAddr> by_headroom;
  by_headroom.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) by_headroom.emplace_back(i);
  std::stable_sort(by_headroom.begin(), by_headroom.end(),
                   [this](PhysicalPageAddr a, PhysicalPageAddr b) {
                     return headroom(a) > headroom(b);
                   });

  std::uint64_t migrated = 0;
  sink.begin_blocking();
  const std::uint32_t hot_n = static_cast<std::uint32_t>(
      std::min<std::size_t>(hot.size(), k));
  for (std::uint32_t i = 0; i < hot_n; ++i) {
    const LogicalPageAddr la = hot[i].second;
    const PhysicalPageAddr target = by_headroom[i];
    const PhysicalPageAddr cur = rt_.to_physical(la);
    if (cur == target) continue;
    sink.swap_pages(cur, target, WritePurpose::kPhaseSwap);
    // The swap itself wears both pages once; wear history stays with the
    // physical page (it is damage, not data).
    ++pa_writes_[cur.value()];
    ++pa_writes_[target.value()];
    rt_.swap_physical(cur, target);
    swapped_filter_.increment(la);
    migrated += 2;
  }
  const std::uint32_t cold_n = static_cast<std::uint32_t>(
      std::min<std::size_t>(cold.size(), k));
  for (std::uint32_t i = 0; i < cold_n; ++i) {
    const LogicalPageAddr la = cold[i].second;
    const PhysicalPageAddr target =
        by_headroom[n - 1 - i];  // Weakest headroom.
    const PhysicalPageAddr cur = rt_.to_physical(la);
    if (cur == target) continue;
    sink.swap_pages(cur, target, WritePurpose::kPhaseSwap);
    // The swap itself wears both pages once; wear history stays with the
    // physical page (it is damage, not data).
    ++pa_writes_[cur.value()];
    ++pa_writes_[target.value()];
    rt_.swap_physical(cur, target);
    migrated += 2;
  }
  sink.end_blocking();
  pages_migrated_ += migrated;

  // Dynamic adaptation (the "dynamic thresholds / dynamic cycles" of the
  // original scheme): keep the hot set and swap volume in a sane band.
  if (hot.size() > 4ULL * k && hot_threshold_ < (1u << 14)) {
    hot_threshold_ *= 2;
  } else if (hot.size() < k / 2 && hot_threshold_ > 4) {
    hot_threshold_ /= 2;
  }
  if (migrated == 0) {
    epoch_len_ = std::min<std::uint64_t>(epoch_len_ * 2, params_.epoch_max);
  } else if (migrated >= 2ULL * k) {
    epoch_len_ = std::max<std::uint64_t>(epoch_len_ / 2, params_.epoch_min);
  }

  hot_filter_.clear();
  if (epochs_ % 2 == 0) swapped_filter_.clear();
}

std::uint32_t BloomWl::storage_bits_per_page() const {
  // RT (23) + ET (27) per page, plus the filters amortized over the pages.
  const std::uint64_t filter_bits =
      hot_filter_.storage_bits() + swapped_filter_.storage_bits();
  return 23 + 27 +
         static_cast<std::uint32_t>(filter_bits / std::max<std::uint64_t>(
                                                      1, rt_.pages()));
}

void BloomWl::save_state(SnapshotWriter& w) const {
  rt_.save_state(w);
  et_.save_state(w);
  hot_filter_.save_state(w);
  swapped_filter_.save_state(w);
  w.put_u64_vec(pa_writes_);
  w.put_u32(hot_threshold_);
  w.put_u64(epoch_len_);
  w.put_u64(epoch_progress_);
  w.put_u64(epochs_);
  w.put_u64(pages_migrated_);
  w.put_u64(retirements_);
}

void BloomWl::load_state(SnapshotReader& r) {
  rt_.load_state(r);
  et_.load_state(r);
  hot_filter_.load_state(r);
  swapped_filter_.load_state(r);
  std::vector<WriteCount> pa_writes = r.get_u64_vec();
  if (pa_writes.size() != pa_writes_.size()) {
    throw SnapshotError("bwl pa_writes size mismatch");
  }
  pa_writes_ = std::move(pa_writes);
  hot_threshold_ = r.get_u32();
  epoch_len_ = r.get_u64();
  epoch_progress_ = r.get_u64();
  epochs_ = r.get_u64();
  pages_migrated_ = r.get_u64();
  retirements_ = r.get_u64();
}

void BloomWl::append_stats(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("epochs", static_cast<double>(epochs_));
  out.emplace_back("pages_migrated", static_cast<double>(pages_migrated_));
  out.emplace_back("hot_threshold", static_cast<double>(hot_threshold_));
  out.emplace_back("epoch_len", static_cast<double>(epoch_len_));
}

}  // namespace twl
