// Write counter table (WCT).
//
// One small saturating counter per logical page, used by TWL to decide
// when the toss-up fires (interval-triggered toss-up, Section 4.3).
// Section 5.4 budgets 7 bits per entry, enough for any toss-up interval
// up to 127; TWL widens the counter to 8 bits for intervals up to 255.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace twl {

class SnapshotReader;
class SnapshotWriter;

class WriteCounterTable {
 public:
  WriteCounterTable(std::uint64_t pages, std::uint32_t counter_bits = 7);

  /// Increment the page's counter; returns the post-increment value.
  /// Saturates at the counter's maximum (2^bits - 1).
  std::uint32_t increment(LogicalPageAddr la);

  void reset(LogicalPageAddr la) { counters_[la.value()] = 0; }

  [[nodiscard]] std::uint32_t value(LogicalPageAddr la) const {
    return counters_[la.value()];
  }
  [[nodiscard]] std::uint32_t max_value() const { return max_; }
  [[nodiscard]] std::uint32_t counter_bits() const { return bits_; }
  [[nodiscard]] std::uint64_t pages() const { return counters_.size(); }

  /// Crash-recovery serialization.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  std::vector<std::uint8_t> counters_;
  std::uint32_t bits_;
  std::uint32_t max_;
};

}  // namespace twl
