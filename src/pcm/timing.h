// PCM service-time model.
//
// Table 1 gives line-level latencies (read/set/reset 250/2000/250 cycles)
// and the bank structure (4 ranks, 32 banks). Writes in this work are
// page-granularity with data-comparison write (DCW [16]): only lines whose
// contents changed are written, and a bank's write drivers can burn a
// limited number of lines concurrently. The resulting page-level service
// times, plus per-bank FIFO occupancy, are what the attacker's response-
// time channel and the Figure 9 execution-time experiment observe.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace twl {

struct ServiceResult {
  Cycles start = 0;  ///< When the bank began serving the request.
  Cycles done = 0;   ///< When the data was available / committed.
};

class PcmTiming {
 public:
  PcmTiming(const PcmGeometry& geometry, const PcmTimingParams& params);

  /// Bank servicing a physical page (page-interleaved across banks).
  [[nodiscard]] std::uint32_t bank_of(PhysicalPageAddr pa) const {
    return pa.value() % banks_;
  }

  /// Service cycles of one page write: ceil(lines * dcw / parallelism)
  /// batches of SET-dominated line writes.
  [[nodiscard]] Cycles page_write_cycles() const { return page_write_cycles_; }

  /// Service cycles of one page read.
  [[nodiscard]] Cycles page_read_cycles() const { return page_read_cycles_; }

  /// Queue a request on its bank at time `now`; returns when it starts and
  /// completes. Banks serve in FIFO order.
  ServiceResult service(PhysicalPageAddr pa, Op op, Cycles now);

  /// Block the whole device until `until` (wear levelers that freeze the
  /// memory during a bulk swap phase use this; it is what makes swap
  /// phases observable to the attacker, footnote 1 of the paper).
  void block_all_until(Cycles until);

  [[nodiscard]] Cycles bank_free_at(std::uint32_t bank) const {
    return bank_busy_until_[bank];
  }

  [[nodiscard]] std::uint32_t banks() const { return banks_; }

  /// Cumulative cycles bank `bank` has spent serving requests (occupancy;
  /// block_all_until idles banks and does not count). The observability
  /// layer exports the per-bank distribution as a histogram.
  [[nodiscard]] Cycles bank_busy_cycles(std::uint32_t bank) const {
    return bank_busy_cycles_[bank];
  }

  void reset();

  /// Fraction of a page's lines actually rewritten under DCW; calibration
  /// constant, defaults to the ~0.5 reported for DCW in [16].
  static constexpr double kDcwFraction = 0.5;
  /// Line writes a bank's write drivers can run concurrently.
  static constexpr std::uint32_t kWriteParallelism = 8;
  /// Line reads returned per sense batch.
  static constexpr std::uint32_t kReadParallelism = 8;

 private:
  std::uint32_t banks_;
  Cycles page_write_cycles_;
  Cycles page_read_cycles_;
  std::vector<Cycles> bank_busy_until_;
  std::vector<Cycles> bank_busy_cycles_;
};

}  // namespace twl
