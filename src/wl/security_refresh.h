// Security Refresh (Seong et al., ISCA'10 [12]).
//
// PV-oblivious randomized remapping: each region XORs its intra-region
// offset with a secret key, and a refresh pointer sweeps the region
// re-keying one address pair (a 2-page swap) every `refresh_interval`
// demand writes. Keys are never exposed, so a malicious stream cannot aim
// at a chosen physical page; but because the scheme levels *write counts*
// rather than *wear rates*, the weakest page still dies at roughly
// E_min / E_mean of the ideal lifetime (the ~44% / 2.8-year plateau in
// Figures 6 and 8).
//
// Two-level operation (the configuration the SR paper recommends): an
// outer instance re-keys the whole device at page granularity with a much
// slower sweep, so that traffic pinned inside one region eventually
// migrates across regions; the inner per-region instances re-key quickly.
// Both levels' refresh intervals are auto-scaled to the endurance (see
// SrParams) so scaled-down simulations keep the real system's
// refreshes-per-lifetime ratio.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "wl/wear_leveler.h"

namespace twl {

/// One SR instance over a power-of-two domain: remaps [0, size) onto
/// itself with two keys and a refresh pointer. Pure mapping state; the
/// owner performs the physical swaps.
class SrRegionState {
 public:
  SrRegionState(std::uint32_t size, XorShift64Star& rng);

  /// Current physical offset of intermediate offset `ma`.
  [[nodiscard]] std::uint32_t remap(std::uint32_t ma) const;

  /// The two physical offsets whose contents must be exchanged for the
  /// next refresh step, or {same, same} when the step is a no-op (pair
  /// already swapped, or identical keys).
  struct RefreshStep {
    std::uint32_t pa_from;
    std::uint32_t pa_to;
    [[nodiscard]] bool is_noop() const { return pa_from == pa_to; }
  };
  [[nodiscard]] RefreshStep next_refresh() const;

  /// Advance the refresh pointer (after the owner applied the step).
  void commit_refresh(XorShift64Star& rng);

  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::uint32_t refresh_pointer() const { return rp_; }

  /// Crash-recovery serialization (keys and refresh pointer).
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  [[nodiscard]] bool refreshed(std::uint32_t ma) const;

  std::uint32_t size_;   ///< Power of two.
  std::uint32_t mask_;
  std::uint32_t k0_;     ///< Previous-round key.
  std::uint32_t k1_;     ///< Current-round key.
  std::uint32_t rp_ = 0; ///< Offsets below this (or their partners) re-keyed.
};

class SecurityRefresh final : public WearLeveler {
 public:
  SecurityRefresh(std::uint64_t pages, const SrParams& params,
                  std::uint64_t seed);

  [[nodiscard]] std::string name() const override { return "SR"; }
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return pages_;
  }

  [[nodiscard]] PhysicalPageAddr map_read(LogicalPageAddr la) const override;

  void write(LogicalPageAddr la, WriteSink& sink) override;

  [[nodiscard]] Cycles read_indirection_cycles() const override {
    return 0;  // XOR with a register key.
  }
  [[nodiscard]] std::uint32_t storage_bits_per_page() const override {
    return 0;  // Per-region registers only.
  }

  [[nodiscard]] bool invariants_hold() const override;

  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  void append_stats(
      std::vector<std::pair<std::string, double>>& out) const override;

 private:
  /// Physical page currently backing intermediate (outer-remapped)
  /// address `x`.
  [[nodiscard]] PhysicalPageAddr phys_of_intermediate(std::uint32_t x) const;

  void inner_refresh(std::uint32_t region, WriteSink& sink);
  void outer_refresh(WriteSink& sink);

  std::uint64_t pages_;
  std::uint32_t region_size_;  ///< Power of two.
  std::uint32_t regions_;
  std::uint32_t inner_interval_;
  XorShift64Star rng_;
  std::vector<SrRegionState> inner_;
  std::vector<std::uint32_t> inner_writes_;  ///< Demand writes per region.
  // Outer level over the whole device at page granularity (present when
  // two_level and the page count is a power of two).
  std::vector<SrRegionState> outer_;  ///< 0 or 1 elements.
  std::uint64_t outer_writes_ = 0;
  /// Writes since the last outer refresh step — derived phase counter
  /// (outer_writes_ % outer_interval_), kept incrementally so the hot
  /// path needs no 64-bit division. Not serialized; recomputed on load.
  std::uint64_t outer_writes_since_refresh_ = 0;
  std::uint64_t outer_interval_ = 0;
  std::uint64_t refresh_swaps_ = 0;
  std::uint64_t outer_swaps_ = 0;
};

}  // namespace twl
