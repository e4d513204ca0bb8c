#include "analysis/wear_report.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "analysis/report.h"
#include "common/stats.h"
#include "pcm/fault_model.h"

namespace twl {

double gini_coefficient(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double total =
      std::accumulate(values.begin(), values.end(), 0.0);
  if (total <= 0.0) return 0.0;
  // G = (2 * sum_i i*x_(i) ) / (n * sum x) - (n+1)/n  with 1-based ranks.
  double weighted = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    weighted += static_cast<double>(i + 1) * values[i];
  }
  const auto n = static_cast<double>(values.size());
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

WearSummary summarize_wear(const Device& device) {
  std::vector<double> fractions = device.wear_fractions();
  WearSummary s;
  RunningStats stats;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    stats.add(fractions[i]);
    const PhysicalPageAddr pa(static_cast<std::uint32_t>(i));
    if (device.writes(pa) == 0) {
      ++s.untouched_pages;
    }
    if (device.worn_out(pa)) {
      ++s.dead_pages;
    }
  }
  if (device.has_fault_model()) {
    s.stuck_faults = device.fault_model().total_faults();
    s.ecp_corrected_faults = device.fault_model().corrected_faults();
  }
  s.mean_fraction = stats.mean();
  s.cov = stats.mean() > 0 ? stats.stddev() / stats.mean() : 0.0;
  s.max = stats.max();
  s.gini = gini_coefficient(fractions);

  std::sort(fractions.begin(), fractions.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(fractions.size() - 1));
    return fractions[idx];
  };
  s.p50 = at(0.50);
  s.p90 = at(0.90);
  s.p99 = at(0.99);
  return s;
}

std::string format_wear_summary(const WearSummary& s) {
  std::ostringstream out;
  out << "wear mean " << fmt_percent(s.mean_fraction, 1) << "  cov "
      << fmt_double(s.cov, 3) << "  gini " << fmt_double(s.gini, 3)
      << "  p50/p90/p99/max " << fmt_percent(s.p50, 0) << "/"
      << fmt_percent(s.p90, 0) << "/" << fmt_percent(s.p99, 0) << "/"
      << fmt_percent(s.max, 0) << "  untouched " << s.untouched_pages;
  if (s.dead_pages > 0) out << "  dead " << s.dead_pages;
  if (s.stuck_faults > 0) {
    out << "  stuck-faults " << s.stuck_faults << " (ECP-corrected "
        << s.ecp_corrected_faults << ")";
  }
  return out.str();
}

std::uint64_t write_wear_csv(const Device& device,
                             const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot open wear CSV for writing: " + path);
  }
  std::fprintf(file, "page,endurance,writes,fraction\n");
  std::uint64_t rows = 0;
  for (std::uint32_t p = 0; p < device.pages(); ++p) {
    const PhysicalPageAddr pa(p);
    const double frac = static_cast<double>(device.writes(pa)) /
                        static_cast<double>(device.endurance(pa));
    std::fprintf(file, "%u,%llu,%llu,%.6f\n", p,
                 static_cast<unsigned long long>(device.endurance(pa)),
                 static_cast<unsigned long long>(device.writes(pa)), frac);
    ++rows;
  }
  std::fclose(file);
  return rows;
}

}  // namespace twl
