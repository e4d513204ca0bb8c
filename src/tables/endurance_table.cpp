#include "tables/endurance_table.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "recovery/snapshot.h"

namespace twl {

EnduranceTable::EnduranceTable(const EnduranceMap& map,
                               std::uint32_t entry_bits, std::uint64_t scale)
    : entry_bits_(entry_bits), scale_(scale) {
  assert(entry_bits > 0 && entry_bits <= 32);
  assert(scale > 0);
  const std::uint64_t max_entry = (entry_bits >= 32)
                                      ? 0xFFFF'FFFFULL
                                      : ((1ULL << entry_bits) - 1);
  entries_.reserve(map.pages());
  for (std::uint32_t i = 0; i < map.pages(); ++i) {
    const std::uint64_t e = map.endurance(PhysicalPageAddr(i)) / scale;
    entries_.push_back(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(e, max_entry)));
  }
}

void EnduranceTable::set_endurance(PhysicalPageAddr pa,
                                   std::uint64_t endurance) {
  assert(pa.value() < entries_.size());
  const std::uint64_t max_entry = (entry_bits_ >= 32)
                                      ? 0xFFFF'FFFFULL
                                      : ((1ULL << entry_bits_) - 1);
  entries_[pa.value()] = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(endurance / scale_, max_entry));
}

void EnduranceTable::save_state(SnapshotWriter& w) const {
  w.put_u32_vec(entries_);
}

void EnduranceTable::load_state(SnapshotReader& r) {
  std::vector<std::uint32_t> entries = r.get_u32_vec();
  if (entries.size() != entries_.size()) {
    throw SnapshotError("endurance table size mismatch: snapshot has " +
                        std::to_string(entries.size()) + " pages, table has " +
                        std::to_string(entries_.size()));
  }
  entries_ = std::move(entries);
}

}  // namespace twl
