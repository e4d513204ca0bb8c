// Wear-distribution analysis.
//
// Summarizes how evenly a scheme spread wear across the device at (or
// before) failure: coefficient of variation, Gini coefficient, quantiles
// of per-page wear fractions, and a CSV dump for external plotting. The
// quality of a wear leveler *is* the shape of this distribution, so the
// examples and benches report it alongside lifetime.
#pragma once

#include <string>
#include <vector>

#include "device/device.h"

namespace twl {

struct WearSummary {
  double mean_fraction = 0.0;  ///< Mean of per-page wear/endurance.
  double cov = 0.0;            ///< Coefficient of variation of the above.
  double gini = 0.0;           ///< Gini coefficient (0 = perfectly even).
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::uint64_t untouched_pages = 0;
  /// Pages dead under the device's active wear-out model (wear latch or
  /// uncorrectable stuck-at faults). Retired pages stay counted here.
  std::uint64_t dead_pages = 0;
  /// Stuck-at counters (0 unless the device runs the fault model).
  std::uint64_t stuck_faults = 0;
  std::uint64_t ecp_corrected_faults = 0;
};

/// Summary of the device's current wear fractions (any backend).
[[nodiscard]] WearSummary summarize_wear(const Device& device);

/// Gini coefficient of a non-negative sample (0 = all equal, ->1 = all
/// mass on one element). Exposed for tests.
[[nodiscard]] double gini_coefficient(std::vector<double> values);

/// Render the summary as an aligned key/value block.
[[nodiscard]] std::string format_wear_summary(const WearSummary& summary);

/// CSV with one row per page: page,endurance,writes,fraction.
/// Returns the number of rows written. Throws std::runtime_error if the
/// file cannot be opened.
std::uint64_t write_wear_csv(const Device& device,
                             const std::string& path);

}  // namespace twl
