// Configuration records.
//
// All constants from Table 1 of the paper live here, together with the
// simulation-scaling knobs.  Lifetime experiments run on a *scaled* device
// (fewer pages, lower endurance) and are extrapolated back to the paper's
// 32 GB / 1e8-endurance system by analysis/extrapolate.*; the scaling law
// is exercised by tests/sim/lifetime_scaling_test.cpp.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace twl {

/// Device geometry (Table 1: 32 GB PCM, 4 KB page, 128 B line,
/// 4 ranks, 32 banks).
struct PcmGeometry {
  std::uint64_t capacity_bytes = 32ULL << 30;
  std::uint32_t page_bytes = 4096;
  std::uint32_t line_bytes = 128;
  std::uint32_t ranks = 4;
  std::uint32_t banks = 32;  ///< Total banks across all ranks.

  [[nodiscard]] std::uint64_t pages() const {
    return capacity_bytes / page_bytes;
  }
  [[nodiscard]] std::uint32_t lines_per_page() const {
    return page_bytes / line_bytes;
  }

  /// A scaled-down geometry with the given page count (capacity shrinks,
  /// page/line size and bank structure stay).
  [[nodiscard]] PcmGeometry scaled_to_pages(std::uint64_t n) const;
};

/// Device latencies (Table 1: read/set/reset 250/2000/250 cycles @ 2 GHz).
struct PcmTimingParams {
  Cycles read_latency = 250;
  Cycles set_latency = 2000;
  Cycles reset_latency = 250;
  double clock_ghz = 2.0;

  /// Average cycles to write one line under data-comparison write:
  /// the worst constituent (SET) dominates and lines within a page are
  /// written by parallel write drivers, so a page write costs one line
  /// write time per line-batch. See pcm/timing.h for the service model.
  [[nodiscard]] Cycles line_write_latency() const { return set_latency; }
};

/// Process-variation model (Section 5.1: Gaussian, mean 1e8, sigma = 11%
/// of mean, endurance tested & stored at page granularity [1, 6]).
struct EnduranceParams {
  double mean = 1e8;
  double sigma_frac = 0.11;
  /// Endurance table entries are quantized to this many bits (Section 5.4
  /// reserves a 27-bit ET entry per page).
  std::uint32_t table_bits = 27;
};

/// Wear-leveling engine latencies (Table 1: RNG 4 cycles, TWL control
/// logic 5 cycles, table access 10 cycles).
struct WlLatencies {
  Cycles rng = 4;
  Cycles control = 5;
  Cycles table = 10;
};

/// How TWL bonds pages into toss-up pairs.
enum class PairingPolicy : std::uint8_t {
  kAdjacent,    ///< Naive: physical neighbours (TWL_ap in Figure 6).
  kStrongWeak,  ///< Sort by endurance, pair rank k with rank N+1-k (SWP).
  kRandom,      ///< Ablation only: random perfect matching.
};

[[nodiscard]] std::string to_string(PairingPolicy p);

/// What endurance figure the toss-up bias uses.
enum class TossBias : std::uint8_t {
  kInitialEndurance,    ///< The paper's design: manufacturer-tested E.
  kRemainingEndurance,  ///< Extension: E minus controller-tracked wear.
};

[[nodiscard]] std::string to_string(TossBias b);

/// Largest toss-up interval TWL can count to: the write counter table's
/// widest (8-bit) counter saturates at 255, so a longer interval would
/// never fire.
inline constexpr std::uint32_t kMaxTossupInterval = 255;

/// TWL parameters (Table 1 + Section 5.2's chosen toss-up interval of 32).
struct TwlParams {
  std::uint32_t tossup_interval = 32;
  /// Demand writes between inter-pair swaps; 0 disables them entirely
  /// (the ablation bench's "off" point).
  std::uint32_t interpair_swap_interval = 128;
  PairingPolicy pairing = PairingPolicy::kStrongWeak;
  /// Use the 2-write migrate-then-write swap (Section 4.1) instead of the
  /// naive 3-write swap. Ablation knob; the paper's design uses 2.
  bool two_write_swap = true;

  // ---- Extensions beyond the paper (defaults keep the paper's design).
  /// Bias the toss by remaining instead of initial endurance.
  TossBias bias = TossBias::kInitialEndurance;
  /// Adapt the toss-up interval at runtime to hold the swap-write ratio
  /// near `target_swap_ratio` (doubling/halving within
  /// [1, adaptive_interval_max] once per adaptation window; the maximum
  /// is at most kMaxTossupInterval).
  bool adaptive_interval = false;
  double target_swap_ratio = 0.022;  ///< The paper's ~2.2% operating point.
  std::uint32_t adaptive_interval_max = 128;
  std::uint64_t adaptation_window = 4096;  ///< Demand writes per adjustment.
};

/// Security Refresh (Seong et al. ISCA'10) parameters. The paper fixes the
/// (inter-pair) swap interval at 128 following SR's suggested settings.
///
/// Refresh rates must stay fast *relative to cell endurance* — at the real
/// scale (E = 1e8) the suggested interval of 128 re-keys a region half a
/// thousand times before any cell can die, but a naively scaled-down
/// simulation would let the attacked page die before its first re-key.
/// With `auto_scale_to_endurance` set (the default), the intervals are
/// capped so that the inner round and the outer round each complete well
/// within one region-capacity of writes, preserving the real-scale
/// behaviour. `endurance_mean_hint` feeds that calculation and is filled
/// in by Config::scaled().
struct SrParams {
  std::uint32_t refresh_interval = 128;  ///< Demand writes per refresh step.
  std::uint32_t region_pages = 4096;     ///< Pages per (inner) region.
  bool two_level = true;
  bool auto_scale_to_endurance = true;
  double endurance_mean_hint = 1e8;
};

/// Bloom-filter based wear leveling (Yun et al. DATE'12) parameters.
/// Epochs play the role of the original's dynamically-sized cycles: at the
/// end of each epoch the counting bloom filter's hot/cold classification
/// drives a bounded bulk swap, then the filter is cleared.
struct BwlParams {
  std::uint32_t filter_bits = 1u << 14;  ///< Counting bloom filter width.
  std::uint32_t num_hashes = 4;
  std::uint32_t hot_threshold = 16;  ///< Initial dynamic hot threshold.
  std::uint64_t epoch_writes = 1u << 13;  ///< Initial epoch length.
  /// Adaptation lengthens quiet epochs but never shrinks below the
  /// initial value: the epoch is the scheme's prediction horizon, and a
  /// shorter one would no longer cover a full classification of the
  /// working set.
  std::uint64_t epoch_min = 1u << 13;
  std::uint64_t epoch_max = 1u << 17;
  std::uint32_t swap_top_k = 32;  ///< Pages relocated per direction/epoch.
};

/// Wear-rate leveling (Dong et al. DAC'11) parameters. Running phase is
/// 10x the prediction phase in the original paper.
struct WrlParams {
  std::uint64_t prediction_writes = 1u << 13;
  std::uint32_t running_multiplier = 10;
  /// Fraction of pages remapped per swap phase (hot->strong and
  /// cold->weak each), bounded below by 8 pages.
  double swap_fraction = 0.02;
};

/// Start-Gap (Qureshi et al. MICRO'09) parameters.
struct StartGapParams {
  std::uint32_t gap_write_interval = 100;  ///< Psi in the original paper.
};

/// Region-Based Start-Gap with security levels (Huang et al. IPDPS'16).
struct RbsgParams {
  std::uint32_t region_pages = 256;  ///< Frames per region (1 is the gap).
  std::uint32_t gap_write_interval = 100;  ///< Psi at security level 1.
  std::uint32_t security_level = 1;        ///< Gap moves per interval.
};

/// Fault-tolerance model (extension beyond the paper, following the
/// graceful-degradation literature the paper cites: OD3P [1], ECP, and
/// WoLFRaM-style remapping).
///
/// With the model enabled, a page no longer dies as a binary latch at its
/// PV endurance. Instead its manufacturer-tested endurance marks the
/// arrival of its *first* stuck-at cell, and further stuck cells arrive
/// stochastically (deterministic per seed) with a mean spacing of
/// `fault_gap_frac` of the page's endurance. ECP-k keeps the page
/// serviceable until more than `ecp_k` cells are stuck; an uncorrectable
/// page is then retired onto a spare from a pool of `spare_pages`
/// reserved off the top of the device, transparently to the wear-leveling
/// scheme. Defaults (`ecp_k = 0`, `spare_pages = 0`) disable the model
/// entirely and reproduce the paper's first-failure-is-death behavior
/// bit for bit.
struct FaultParams {
  /// Stuck-at cells ECP can correct per page; 0 disables the stuck-at
  /// fault model (binary wear-out latch, the paper's model).
  std::uint32_t ecp_k = 0;
  /// Mean gap between successive stuck-cell arrivals on a page, as a
  /// fraction of that page's endurance (exponential gaps).
  double fault_gap_frac = 0.02;
  /// Physical pages reserved as the retirement spare pool. The
  /// wear-leveling scheme manages only the remaining pages.
  std::uint32_t spare_pages = 0;

  [[nodiscard]] bool fault_model_enabled() const { return ecp_k > 0; }
  [[nodiscard]] bool retirement_enabled() const { return spare_pages > 0; }
  [[nodiscard]] bool enabled() const {
    return fault_model_enabled() || retirement_enabled();
  }
};

/// Storage substrate the simulation stack runs over (src/device/). kPcm
/// is the paper's Table-1 device and the default everywhere; the other
/// backends open the storage-stack and embedded scenarios the ROADMAP
/// names. Parsing/printing lives in device/factory.h so every binary
/// shares one --device vocabulary.
enum class DeviceBackend : std::uint8_t {
  kPcm = 0,    ///< Write-in-place PCM, per-page endurance (Table 1).
  kNor,        ///< NOR-flash block device: erase-before-write,
               ///< per-erase-block endurance.
  kHybrid,     ///< DRAM write-back cache in front of a PCM backend.
};

/// NOR-flash block-device model (DeviceBackend::kNor). Endurance is
/// consumed by *block erases*, not page programs: each erase block's
/// cycle budget is the minimum manufacturer-tested endurance of its
/// member pages (the conservative reading of the per-page PV map).
struct NorParams {
  /// Pages per erase block. Device page count need not divide evenly;
  /// the last block is simply smaller.
  std::uint32_t pages_per_block = 16;
  /// Block-erase service time on the request path (NOR erases are
  /// milliseconds against microsecond programs; 2e6 cycles = 1 ms at the
  /// Table-1 2 GHz clock).
  Cycles erase_cycles = 2'000'000;
};

/// DRAM-cache-fronted hybrid (DeviceBackend::kHybrid): a set-associative
/// write-back cache absorbs hot page writes before they reach the
/// endurance-limited PCM backend; only dirty evictions charge wear. The
/// cache is modeled as flushed-on-crash (battery-backed controller DRAM),
/// so its metadata checkpoints with the device state and the two-phase
/// journaling recovery contract carries over unchanged (DESIGN.md §14).
struct HybridParams {
  std::uint32_t cache_pages = 64;  ///< Total cache capacity in pages.
  std::uint32_t ways = 4;          ///< Associativity (divides cache_pages).
};

/// Backend selection plus per-backend knobs, bundled so one Config fully
/// describes the simulated device stack.
struct DeviceParams {
  DeviceBackend backend = DeviceBackend::kPcm;
  NorParams nor{};
  HybridParams hybrid{};
};

/// Controller hot-path (translate -> DCW -> wear update) tuning knobs.
/// These are pure performance options: with the cache on or off, batch
/// submission or per-write submission, the physical write stream is
/// bit-identical (tests/wl/translation_cache_property_test.cpp and the CI
/// hotpath job enforce this).
struct HotpathParams {
  /// Memoize map_read() in a direct-mapped TLB-style cache inside the
  /// schemes that can afford exact invalidation (Start-Gap, Security
  /// Refresh). Purely an engine-speed knob; hit/miss counts are exported
  /// as scheme stats.
  bool translation_cache = true;
  /// Entries in the translation cache (rounded up to a power of two).
  std::uint32_t cache_entries = 1024;

  [[nodiscard]] std::uint32_t cache_entries_pow2() const;
};

/// The real (paper-scale) system used for extrapolating scaled results.
struct RealSystem {
  PcmGeometry geometry{};      // 32 GB.
  EnduranceParams endurance{};  // 1e8 mean.
  /// Attack-mode write bandwidth (Section 5.2: nonstop ~8 GB/s stream,
  /// "which indicates an ideal lifetime of 6.6 years").
  double attack_write_gbps = 8.0;
  /// Paper-stated ideal lifetime at that bandwidth. We treat this as the
  /// calibration anchor for converting write-fractions into years.
  double ideal_lifetime_years = 6.6;
};

/// Scaled simulation parameters: the device actually simulated.
struct SimScale {
  std::uint64_t pages = 4096;
  double endurance_mean = 4096;
  double endurance_sigma_frac = 0.11;
  std::uint64_t seed = 20170618;  ///< DAC'17 opened June 18, 2017.
};

/// Everything a simulator needs, bundled.
struct Config {
  PcmGeometry geometry{};
  PcmTimingParams timing{};
  EnduranceParams endurance{};
  WlLatencies wl_latencies{};
  TwlParams twl{};
  SrParams sr{};
  BwlParams bwl{};
  WrlParams wrl{};
  StartGapParams start_gap{};
  RbsgParams rbsg{};
  FaultParams fault{};
  DeviceParams device{};
  HotpathParams hotpath{};
  RealSystem real{};
  std::uint64_t seed = 20170618;

  /// Whether wear-leveling migration writes consume endurance. Physically
  /// they must (default true); `false` reproduces the accounting the
  /// paper's own evaluation appears to use, under which toss-up swaps are
  /// a pure performance cost — the only reading consistent with Figure
  /// 7(b)'s falling lifetime-vs-interval trend and Figure 6's TWL scan
  /// result above the uniform-leveling bound. See EXPERIMENTS.md.
  bool migration_wear = true;

  /// Paper-default configuration at full (32 GB, 1e8) scale.
  [[nodiscard]] static Config paper_default();

  /// Scaled-down configuration suitable for whole-lifetime simulation.
  [[nodiscard]] static Config scaled(const SimScale& scale);

  /// Rejects nonsensical parameter combinations with a
  /// std::invalid_argument naming the offending field. Every simulator
  /// constructor calls this, so bad configs fail loudly instead of
  /// silently producing garbage.
  void validate() const;
};

}  // namespace twl
