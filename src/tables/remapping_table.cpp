#include "tables/remapping_table.h"

#include <cassert>
#include <utility>

#include "recovery/snapshot.h"

namespace twl {

RemappingTable::RemappingTable(std::uint64_t pages) {
  assert(pages > 0);
  la_to_pa_.reserve(pages);
  pa_to_la_.reserve(pages);
  for (std::uint32_t i = 0; i < pages; ++i) {
    la_to_pa_.emplace_back(i);
    pa_to_la_.emplace_back(i);
  }
}

void RemappingTable::swap_logical(LogicalPageAddr a, LogicalPageAddr b) {
  if (a == b) return;
  const PhysicalPageAddr pa = la_to_pa_[a.value()];
  const PhysicalPageAddr pb = la_to_pa_[b.value()];
  la_to_pa_[a.value()] = pb;
  la_to_pa_[b.value()] = pa;
  pa_to_la_[pa.value()] = b;
  pa_to_la_[pb.value()] = a;
}

void RemappingTable::swap_physical(PhysicalPageAddr a, PhysicalPageAddr b) {
  if (a == b) return;
  swap_logical(pa_to_la_[a.value()], pa_to_la_[b.value()]);
}

void RemappingTable::save_state(SnapshotWriter& w) const {
  std::vector<std::uint32_t> forward;
  forward.reserve(la_to_pa_.size());
  for (PhysicalPageAddr pa : la_to_pa_) forward.push_back(pa.value());
  w.put_u32_vec(forward);
}

void RemappingTable::load_state(SnapshotReader& r) {
  const std::vector<std::uint32_t> forward = r.get_u32_vec();
  if (forward.size() != la_to_pa_.size()) {
    throw SnapshotError("remapping table size mismatch: snapshot has " +
                        std::to_string(forward.size()) + " pages, table has " +
                        std::to_string(la_to_pa_.size()));
  }
  std::vector<bool> seen(forward.size(), false);
  for (std::uint32_t pa : forward) {
    if (pa >= forward.size() || seen[pa]) {
      throw SnapshotError("remapping table snapshot is not a permutation");
    }
    seen[pa] = true;
  }
  for (std::uint32_t la = 0; la < forward.size(); ++la) {
    la_to_pa_[la] = PhysicalPageAddr(forward[la]);
    pa_to_la_[forward[la]] = LogicalPageAddr(la);
  }
}

bool RemappingTable::is_consistent() const {
  for (std::uint32_t la = 0; la < la_to_pa_.size(); ++la) {
    const PhysicalPageAddr pa = la_to_pa_[la];
    if (pa.value() >= pa_to_la_.size()) return false;
    if (pa_to_la_[pa.value()] != LogicalPageAddr(la)) return false;
  }
  return true;
}

}  // namespace twl
