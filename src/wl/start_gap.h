// Start-Gap wear leveling (Qureshi et al., MICRO'09 [10]).
//
// The classic algebraic scheme: N logical pages live in N+1 physical
// frames; a roving gap frame absorbs one page move every `psi` demand
// writes, and a Start register advances once per full gap rotation. The
// mapping needs no table at all — two registers and an adder:
//
//   pa = (la + start) mod N;  if (pa >= gap) pa += 1;
//
// Included beyond the paper's baseline set because it is the ancestor of
// Security Refresh and makes the attack benches more complete.
#pragma once

#include "common/config.h"
#include "wl/wear_leveler.h"

namespace twl {

class StartGap final : public WearLeveler {
 public:
  /// `frames` is the number of *physical* pages available; the scheme
  /// exposes frames-1 logical pages.
  StartGap(std::uint64_t frames, const StartGapParams& params);

  [[nodiscard]] std::string name() const override { return "StartGap"; }
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return frames_ - 1;
  }

  [[nodiscard]] PhysicalPageAddr map_read(LogicalPageAddr la) const override;

  void write(LogicalPageAddr la, WriteSink& sink) override;

  [[nodiscard]] Cycles read_indirection_cycles() const override {
    return 0;  // Register arithmetic, no table access.
  }
  [[nodiscard]] std::uint32_t storage_bits_per_page() const override {
    return 0;  // Two registers for the whole device.
  }

  [[nodiscard]] bool invariants_hold() const override;

  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  void append_stats(
      std::vector<std::pair<std::string, double>>& out) const override;

  [[nodiscard]] std::uint64_t gap() const { return gap_; }
  [[nodiscard]] std::uint64_t start() const { return start_; }

  /// Advance the gap one step immediately, regardless of the write
  /// counter. Used by composite schemes (RBSG) that control the
  /// randomization rate externally (security levels).
  void force_gap_move(WriteSink& sink) { move_gap(sink); }

 private:
  void move_gap(WriteSink& sink);

  std::uint64_t frames_;
  std::uint32_t psi_;
  std::uint64_t gap_;       ///< Frame currently holding no data.
  std::uint64_t start_ = 0;
  std::uint32_t writes_since_move_ = 0;
  std::uint64_t gap_moves_ = 0;
};

}  // namespace twl
