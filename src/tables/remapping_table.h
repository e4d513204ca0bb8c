// Remapping table (RT).
//
// The LA <-> PA indirection every scheme in the paper maintains (Figure 1
// and Figure 5). The table is a permutation: both directions are stored so
// that swap-based schemes can update in O(1), and the bidirectional
// invariant is checkable in tests.
//
// Hardware cost: one 23-bit entry per 4 KB page (Section 5.4) — enough to
// index 2^23 pages = 32 GB.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace twl {

class SnapshotReader;
class SnapshotWriter;

class RemappingTable {
 public:
  /// Identity mapping over `pages` pages.
  explicit RemappingTable(std::uint64_t pages);

  [[nodiscard]] PhysicalPageAddr to_physical(LogicalPageAddr la) const {
    return la_to_pa_[la.value()];
  }
  [[nodiscard]] LogicalPageAddr to_logical(PhysicalPageAddr pa) const {
    return pa_to_la_[pa.value()];
  }

  /// Exchange the physical homes of two logical pages (both directions
  /// updated). Swapping a page with itself is a no-op.
  void swap_logical(LogicalPageAddr a, LogicalPageAddr b);

  /// Exchange the logical owners of two physical pages.
  void swap_physical(PhysicalPageAddr a, PhysicalPageAddr b);

  [[nodiscard]] std::uint64_t pages() const { return la_to_pa_.size(); }

  /// O(n) consistency check: to_logical(to_physical(la)) == la for all la.
  [[nodiscard]] bool is_consistent() const;

  /// Crash-recovery serialization. Only the forward map is stored; load
  /// rebuilds the inverse and throws SnapshotError unless the stored map
  /// is a permutation of the table's page range.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  std::vector<PhysicalPageAddr> la_to_pa_;
  std::vector<LogicalPageAddr> pa_to_la_;
};

}  // namespace twl
