#include "tables/write_counter_table.h"

#include <cassert>
#include <utility>

#include "recovery/snapshot.h"

namespace twl {

WriteCounterTable::WriteCounterTable(std::uint64_t pages,
                                     std::uint32_t counter_bits)
    : counters_(pages, 0),
      bits_(counter_bits),
      max_((1u << counter_bits) - 1) {
  assert(counter_bits > 0 && counter_bits <= 8 &&
         "WCT entries are a byte wide in this model");
}

std::uint32_t WriteCounterTable::increment(LogicalPageAddr la) {
  std::uint8_t& c = counters_[la.value()];
  if (c < max_) ++c;
  return c;
}

void WriteCounterTable::save_state(SnapshotWriter& w) const {
  w.put_u8_vec(counters_);
}

void WriteCounterTable::load_state(SnapshotReader& r) {
  std::vector<std::uint8_t> counters = r.get_u8_vec();
  if (counters.size() != counters_.size()) {
    throw SnapshotError("write counter table size mismatch: snapshot has " +
                        std::to_string(counters.size()) +
                        " pages, table has " +
                        std::to_string(counters_.size()));
  }
  counters_ = std::move(counters);
}

}  // namespace twl
