#include "pcm/timing.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace twl {

PcmTiming::PcmTiming(const PcmGeometry& geometry,
                     const PcmTimingParams& params)
    : banks_(std::max<std::uint32_t>(1, geometry.banks)),
      bank_busy_until_(banks_, 0),
      bank_busy_cycles_(banks_, 0) {
  const double lines = geometry.lines_per_page();
  const auto write_batches = static_cast<Cycles>(
      std::ceil(lines * kDcwFraction / kWriteParallelism));
  const auto read_batches =
      static_cast<Cycles>(std::ceil(lines / kReadParallelism));
  page_write_cycles_ =
      std::max<Cycles>(1, write_batches) * params.line_write_latency();
  page_read_cycles_ = std::max<Cycles>(1, read_batches) * params.read_latency;
}

ServiceResult PcmTiming::service(PhysicalPageAddr pa, Op op, Cycles now) {
  const std::uint32_t bank = bank_of(pa);
  const Cycles start = std::max(now, bank_busy_until_[bank]);
  const Cycles cost =
      op == Op::kWrite ? page_write_cycles_ : page_read_cycles_;
  // Saturate: a request chain near the end of a multi-year horizon must
  // not wrap the bank's free time backwards (done < start would unblock
  // the bank and corrupt every later latency).
  const Cycles done = sat_add_u64(start, cost);
  bank_busy_until_[bank] = done;
  bank_busy_cycles_[bank] = sat_add_u64(bank_busy_cycles_[bank], cost);
  return {start, done};
}

void PcmTiming::block_all_until(Cycles until) {
  for (Cycles& b : bank_busy_until_) b = std::max(b, until);
}

void PcmTiming::reset() {
  std::fill(bank_busy_until_.begin(), bank_busy_until_.end(), Cycles{0});
  std::fill(bank_busy_cycles_.begin(), bank_busy_cycles_.end(), Cycles{0});
}

}  // namespace twl
