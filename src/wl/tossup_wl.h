// Toss-up Wear Leveling (TWL) — the paper's contribution (Section 4).
//
// Every logical page is bonded to a partner (strong-weak pairing by
// default); when the write counter of a page reaches the toss-up interval,
// the TWL engine draws alpha from an 8-bit Feistel RNG and reallocates the
// write to the pair member chosen with probability proportional to its
// endurance:
//
//   P(write page A) = E_A / (E_A + E_B)
//
// If the chosen page differs from the addressed one, the "swap judge"
// performs the 2-write swap-then-write of Section 4.1: the chosen page's
// old data migrates to the unchosen page, then the demand data lands on
// the chosen page, and the remapping table swaps the two logical homes.
// Additionally, every `interpair_swap_interval` demand writes the written
// page is exchanged with a page at a random address (inter-pair swap),
// which spreads traffic across pairs.
//
// Because the bias depends only on endurance — never on a *prediction* of
// future write traffic — an attacker gains nothing by showing an
// inconsistent write distribution.
//
// Two extensions beyond the paper (both off by default, see TwlParams):
//  * remaining-endurance bias — the toss probability uses
//    E - controller-tracked wear instead of the static manufacturer E, so
//    the bias tightens as pages age;
//  * adaptive toss-up interval — the interval doubles/halves once per
//    adaptation window to hold the observed swap/write ratio at the
//    configured target (the paper picks a static 32 for ~2.2%).
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "tables/endurance_table.h"
#include "tables/pair_table.h"
#include "tables/remapping_table.h"
#include "tables/write_counter_table.h"
#include "wl/wear_leveler.h"

namespace twl {

class TossUpWl final : public WearLeveler {
 public:
  TossUpWl(const EnduranceMap& endurance, const TwlParams& params,
           const WlLatencies& latencies, std::uint32_t et_entry_bits,
           std::uint64_t seed);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return rt_.pages();
  }

  [[nodiscard]] PhysicalPageAddr map_read(LogicalPageAddr la) const override {
    return rt_.to_physical(la);
  }

  void write(LogicalPageAddr la, WriteSink& sink) override;

  [[nodiscard]] Cycles read_indirection_cycles() const override {
    return latencies_.table;  // One RT access (Figure 5(a)).
  }

  /// Section 5.4: WCT 7 + ET 27 + RT 23 + SWPT 23 = 80 bits per 4 KB page.
  [[nodiscard]] std::uint32_t storage_bits_per_page() const override {
    return wct_.counter_bits() + et_.entry_bits() + 23 + 23;
  }

  [[nodiscard]] bool invariants_hold() const override {
    return rt_.is_consistent() && swpt_.is_perfect_matching();
  }

  /// Retirement rebinds `pa`'s physical slot to a spare: refresh the ET
  /// entry so the toss-up bias reflects the spare's endurance, and clear
  /// the controller-side wear estimate (remaining-endurance bias).
  void on_page_retired(PhysicalPageAddr pa, PhysicalPageAddr spare,
                       std::uint64_t spare_endurance,
                       WriteSink& sink) override;

  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  void append_stats(
      std::vector<std::pair<std::string, double>>& out) const override;

  // Counters the Figure 7 experiment consumes directly.
  [[nodiscard]] std::uint64_t demand_writes() const { return demand_writes_; }
  [[nodiscard]] std::uint64_t tossups() const { return tossups_; }
  [[nodiscard]] std::uint64_t tossup_swaps() const { return tossup_swaps_; }
  [[nodiscard]] std::uint64_t interpair_swaps() const {
    return interpair_swaps_;
  }

  [[nodiscard]] const TwlParams& params() const { return params_; }

  /// Current (possibly adapted) toss-up interval.
  [[nodiscard]] std::uint32_t current_interval() const { return interval_; }

 private:
  /// The toss-up + swap judge of Figure 4, for a demand write to `la`.
  void toss_up(LogicalPageAddr la, WriteSink& sink);

  /// Endurance figure used for the bias (initial or remaining).
  [[nodiscard]] double bias_endurance(PhysicalPageAddr pa) const;

  void maybe_adapt_interval();

  RemappingTable rt_;
  EnduranceTable et_;
  PairTable swpt_;
  WriteCounterTable wct_;
  Feistel8 rng_;
  XorShift64Star interpair_rng_;
  TwlParams params_;
  WlLatencies latencies_;
  std::uint32_t interval_;
  std::vector<WriteCount> pa_writes_;  ///< For remaining-endurance bias.
  std::uint64_t demand_writes_ = 0;
  std::uint64_t tossups_ = 0;
  std::uint64_t tossup_swaps_ = 0;
  std::uint64_t interpair_swaps_ = 0;
  std::uint64_t window_swaps_ = 0;  ///< Swaps in the adaptation window.
  std::uint64_t interval_adaptations_ = 0;
  std::uint64_t retirements_ = 0;
};

}  // namespace twl
