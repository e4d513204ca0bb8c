// Bloom-filter based dynamic wear leveling (Yun et al., DATE'12 [13]).
//
// The state-of-the-art PV-aware baseline in the paper's evaluation. Same
// prediction/swap/running idea as wear-rate leveling, but hot/cold
// identification uses counting Bloom filters with dynamic thresholds, and
// phase lengths adapt instead of being fixed:
//
//  * every demand write updates the hot filter and checks the recently-
//    swapped filter plus the hot/cold list — the paper's Figure 9
//    discussion charges BWL three table accesses on *every* write, which
//    is where its ~6.5% performance overhead comes from;
//  * at the end of each (adaptive) epoch, pages whose estimate crosses the
//    dynamic hot threshold are pulled onto the strongest cells and pages
//    below the cold threshold are parked on the weakest cells, in a
//    blocking bulk swap;
//  * thresholds and epoch length adapt to keep the swap volume in a band.
//
// Because placement trusts the *previous* epoch's distribution, the
// inconsistent-write attack of Section 3 defeats it: in the paper BWL's
// PCM dies in 98 seconds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "tables/endurance_table.h"
#include "tables/remapping_table.h"
#include "wl/bloom_filter.h"
#include "wl/wear_leveler.h"

namespace twl {

class BloomWl final : public WearLeveler {
 public:
  BloomWl(const EnduranceMap& endurance, const BwlParams& params,
          std::uint32_t et_entry_bits, std::uint64_t seed);

  [[nodiscard]] std::string name() const override { return "BWL"; }
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return rt_.pages();
  }

  [[nodiscard]] PhysicalPageAddr map_read(LogicalPageAddr la) const override {
    return rt_.to_physical(la);
  }

  void write(LogicalPageAddr la, WriteSink& sink) override;

  [[nodiscard]] Cycles read_indirection_cycles() const override {
    return 10;  // RT access.
  }
  [[nodiscard]] std::uint32_t storage_bits_per_page() const override;

  [[nodiscard]] bool invariants_hold() const override {
    return rt_.is_consistent();
  }

  /// Refresh the retired slot's endurance/headroom bookkeeping so the
  /// next epoch's hot/cold placement ranks the spare correctly.
  void on_page_retired(PhysicalPageAddr pa, PhysicalPageAddr spare,
                       std::uint64_t spare_endurance,
                       WriteSink& sink) override {
    (void)spare;
    (void)sink;
    et_.set_endurance(pa, spare_endurance);
    pa_writes_[pa.value()] = 0;
    ++retirements_;
  }

  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  void append_stats(
      std::vector<std::pair<std::string, double>>& out) const override;

  [[nodiscard]] std::uint32_t hot_threshold() const { return hot_threshold_; }
  [[nodiscard]] std::uint64_t epoch_writes() const { return epoch_len_; }

 private:
  void end_of_epoch(WriteSink& sink);

  [[nodiscard]] std::int64_t headroom(PhysicalPageAddr pa) const;

  RemappingTable rt_;
  EnduranceTable et_;
  CountingBloomFilter hot_filter_;
  CountingBloomFilter swapped_filter_;  ///< Suppresses re-swapping a page.
  BwlParams params_;
  std::vector<WriteCount> pa_writes_;
  std::uint32_t hot_threshold_;
  std::uint64_t epoch_len_;
  std::uint64_t epoch_progress_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t pages_migrated_ = 0;
  std::uint64_t retirements_ = 0;
};

}  // namespace twl
