// Endurance table (ET).
//
// The controller-resident copy of the manufacturer endurance test, indexed
// by physical page. Entries are quantized to a fixed bit width (27 bits per
// Section 5.4) — the quantization is modeled because the toss-up bias is
// computed from these entries, not from the ground truth, and the ablation
// bench sweeps the width.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "pcm/endurance.h"

namespace twl {

class SnapshotReader;
class SnapshotWriter;

class EnduranceTable {
 public:
  /// Quantizes `map` into `entry_bits`-wide entries. Values saturate at
  /// (2^entry_bits - 1) after scaling by `scale` (writes per LSB); the
  /// default scale of 16 covers 1e8-endurance parts within 27 bits.
  EnduranceTable(const EnduranceMap& map, std::uint32_t entry_bits,
                 std::uint64_t scale = 16);

  /// Endurance as the controller believes it (quantized, rescaled).
  [[nodiscard]] std::uint64_t endurance(PhysicalPageAddr pa) const {
    return static_cast<std::uint64_t>(entries_[pa.value()]) * scale_;
  }

  /// Re-quantize entry `pa` to a new endurance figure (page retirement
  /// rebinds the physical slot to a spare with its own manufacturer-
  /// tested endurance).
  void set_endurance(PhysicalPageAddr pa, std::uint64_t endurance);

  [[nodiscard]] std::uint64_t pages() const { return entries_.size(); }
  [[nodiscard]] std::uint32_t entry_bits() const { return entry_bits_; }

  /// Storage cost in bits per page.
  [[nodiscard]] std::uint32_t bits_per_page() const { return entry_bits_; }

  /// Crash-recovery serialization. Entries are nominally reconstructible
  /// from the endurance map, but page retirement rebinds them at runtime,
  /// so the quantized entries themselves are part of the snapshot.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  std::vector<std::uint32_t> entries_;
  std::uint32_t entry_bits_;
  std::uint64_t scale_;
};

}  // namespace twl
