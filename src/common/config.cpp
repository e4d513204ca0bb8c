#include "common/config.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace twl {

namespace {

[[noreturn]] void reject(const std::string& field, const std::string& why) {
  throw std::invalid_argument("invalid config: " + field + " " + why);
}

void require(bool ok, const char* field, const char* why) {
  if (!ok) reject(field, why);
}

}  // namespace

void Config::validate() const {
  require(geometry.page_bytes > 0, "geometry.page_bytes", "must be > 0");
  require(geometry.line_bytes > 0, "geometry.line_bytes", "must be > 0");
  require(geometry.line_bytes <= geometry.page_bytes, "geometry.line_bytes",
          "must not exceed page_bytes");
  require(geometry.pages() > 0, "geometry.capacity_bytes",
          "must hold at least one page");
  require(geometry.banks > 0, "geometry.banks", "must be > 0");
  require(geometry.ranks > 0, "geometry.ranks", "must be > 0");

  require(timing.clock_ghz > 0.0, "timing.clock_ghz", "must be > 0");

  require(endurance.mean > 0.0, "endurance.mean", "must be > 0");
  require(endurance.sigma_frac >= 0.0, "endurance.sigma_frac",
          "must be >= 0");
  require(endurance.table_bits > 0 && endurance.table_bits <= 32,
          "endurance.table_bits", "must be in [1, 32]");

  // The WCT counter saturates at kMaxTossupInterval; a longer interval
  // would never fire a toss-up.
  require(twl.tossup_interval > 0 &&
              twl.tossup_interval <= kMaxTossupInterval,
          "twl.tossup_interval", "must be in [1, 255]");
  // interpair_swap_interval == 0 disables inter-pair swaps (the ablation
  // bench's "off" row); TossUpWl guards the modulo accordingly.
  require(twl.adaptive_interval_max > 0 &&
              twl.adaptive_interval_max <= kMaxTossupInterval,
          "twl.adaptive_interval_max", "must be in [1, 255]");
  require(twl.adaptation_window > 0, "twl.adaptation_window", "must be > 0");
  require(twl.target_swap_ratio > 0.0, "twl.target_swap_ratio",
          "must be > 0");

  require(sr.refresh_interval > 0, "sr.refresh_interval", "must be > 0");
  require(sr.region_pages > 0, "sr.region_pages", "must be > 0");
  require(sr.endurance_mean_hint > 0.0, "sr.endurance_mean_hint",
          "must be > 0");

  require(bwl.filter_bits > 0, "bwl.filter_bits", "must be > 0");
  require(bwl.num_hashes > 0, "bwl.num_hashes", "must be > 0");
  require(bwl.hot_threshold > 0, "bwl.hot_threshold", "must be > 0");
  require(bwl.epoch_writes > 0, "bwl.epoch_writes", "must be > 0");
  require(bwl.epoch_min > 0, "bwl.epoch_min", "must be > 0");
  require(bwl.epoch_max >= bwl.epoch_min, "bwl.epoch_max",
          "must be >= epoch_min");
  require(bwl.swap_top_k > 0, "bwl.swap_top_k", "must be > 0");

  require(wrl.prediction_writes > 0, "wrl.prediction_writes", "must be > 0");
  require(wrl.running_multiplier > 0, "wrl.running_multiplier",
          "must be > 0");
  require(wrl.swap_fraction > 0.0 && wrl.swap_fraction <= 1.0,
          "wrl.swap_fraction", "must be in (0, 1]");

  require(start_gap.gap_write_interval > 0, "start_gap.gap_write_interval",
          "must be > 0");

  require(rbsg.region_pages >= 2, "rbsg.region_pages", "must be >= 2");
  require(rbsg.gap_write_interval > 0, "rbsg.gap_write_interval",
          "must be > 0");
  require(rbsg.security_level > 0, "rbsg.security_level", "must be > 0");

  require(fault.fault_gap_frac > 0.0, "fault.fault_gap_frac", "must be > 0");
  // A page fails at ecp_k + 1 stuck cells, so that count must exist on a
  // page (and ecp_k + 1 must not wrap).
  const std::uint64_t page_cells = std::uint64_t{geometry.page_bytes} * 8;
  if (fault.ecp_k >= page_cells) {
    reject("fault.ecp_k", "must be below the page's " +
                              std::to_string(page_cells) + " cells, got " +
                              std::to_string(fault.ecp_k));
  }
  if (fault.spare_pages >= geometry.pages()) {
    reject("fault.spare_pages",
           "must leave at least one non-spare page (" +
               std::to_string(fault.spare_pages) + " spares >= " +
               std::to_string(geometry.pages()) + " pages)");
  }

  require(device.nor.pages_per_block > 0, "device.nor.pages_per_block",
          "must be > 0");
  require(device.nor.erase_cycles > 0, "device.nor.erase_cycles",
          "must be > 0");
  require(device.hybrid.cache_pages > 0, "device.hybrid.cache_pages",
          "must be > 0");
  require(device.hybrid.ways > 0, "device.hybrid.ways", "must be > 0");
  require(device.hybrid.cache_pages % device.hybrid.ways == 0,
          "device.hybrid.cache_pages", "must be a multiple of hybrid.ways");
  if (device.backend != DeviceBackend::kPcm && fault.enabled()) {
    reject("device.backend",
           "the stuck-at fault model and page retirement are PCM-only "
           "(ecp_k and spare_pages must be 0 for non-PCM backends)");
  }

  require(real.attack_write_gbps > 0.0, "real.attack_write_gbps",
          "must be > 0");
  require(real.ideal_lifetime_years > 0.0, "real.ideal_lifetime_years",
          "must be > 0");
}

PcmGeometry PcmGeometry::scaled_to_pages(std::uint64_t n) const {
  assert(n > 0);
  PcmGeometry g = *this;
  g.capacity_bytes = n * page_bytes;
  // Keep at least one bank, shrink bank count if the device got tiny so
  // that every bank still holds at least one page.
  g.banks = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(banks, std::max<std::uint64_t>(1, n)));
  g.ranks = std::min(ranks, g.banks);
  return g;
}

std::string to_string(TossBias b) {
  switch (b) {
    case TossBias::kInitialEndurance:
      return "initial-endurance";
    case TossBias::kRemainingEndurance:
      return "remaining-endurance";
  }
  return "unknown";
}

std::string to_string(PairingPolicy p) {
  switch (p) {
    case PairingPolicy::kAdjacent:
      return "adjacent";
    case PairingPolicy::kStrongWeak:
      return "strong-weak";
    case PairingPolicy::kRandom:
      return "random";
  }
  return "unknown";
}

Config Config::paper_default() { return Config{}; }

Config Config::scaled(const SimScale& scale) {
  Config c;
  c.geometry = c.geometry.scaled_to_pages(scale.pages);
  c.endurance.mean = scale.endurance_mean;
  c.endurance.sigma_frac = scale.endurance_sigma_frac;
  c.seed = scale.seed;
  // SR regions cannot exceed the device, and small simulated devices use
  // proportionally smaller regions so a multi-region (two-level) layout
  // survives the scaling.
  c.sr.region_pages = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(c.sr.region_pages, scale.pages / 8));
  c.sr.region_pages = std::max<std::uint32_t>(c.sr.region_pages, 1);
  c.sr.endurance_mean_hint = scale.endurance_mean;
  // RBSG keeps multiple regions on scaled devices too.
  c.rbsg.region_pages = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      2, std::min<std::uint64_t>(c.rbsg.region_pages, scale.pages / 8)));
  return c;
}

}  // namespace twl
