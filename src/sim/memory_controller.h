// Memory controller: glues a wear-leveling scheme to the PCM device and
// the timing model.
//
// It is the WriteSink the scheme's physical effects flow through: every
// demand/migration/swap write charges wear on the device, and — when
// timing is enabled — occupies the owning bank, so that response times
// (including the latency spikes of blocking swap phases) are observable
// by the caller, exactly the channel the paper's attacker uses.
//
// With fault tolerance configured (FaultParams::retirement_enabled()),
// the controller additionally owns the retirement indirection: scheme
// addresses are redirected through the RetirementTable on every device
// access, uncorrectable pages are salvaged onto spares transparently to
// the scheme, and the device only counts as failed once a page dies with
// the spare pool exhausted.
//
// The controller is a template over the scheme and device types it calls.
// MemoryController, the instance over the WearLeveler and Device
// interfaces, is the one every stack builds. sim/dispatch.h lists the
// concrete pairs a simulator's write loop may run instead, so that the
// optimizer can inline the whole write (DESIGN.md §12). Every instance
// runs the same source, defined and explicitly instantiated in
// memory_controller.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "device/device.h"
#include "obs/trace.h"
#include "pcm/retirement.h"
#include "pcm/timing.h"
#include "wl/wear_leveler.h"

namespace twl {

class JsonWriter;
class MetadataJournal;
class MetricsRegistry;
class LogHistogram;
class SnapshotReader;
class SnapshotWriter;

struct ControllerStats {
  WriteCount demand_writes = 0;
  WriteCount reads = 0;
  /// Physical page writes indexed by WritePurpose.
  std::array<WriteCount, kNumWritePurposes> writes_by_purpose{};
  WriteCount migration_reads = 0;
  std::uint64_t blocking_events = 0;
  /// Pages retired onto spares (fault-tolerant configs only).
  std::uint32_t pages_retired = 0;
  /// Pages that died after the spare pool ran dry (at most 1 in practice:
  /// the first one latches device failure).
  std::uint32_t unretired_failures = 0;

  [[nodiscard]] WriteCount physical_writes() const;
  /// Physical writes beyond the demand traffic (the wear-leveling tax).
  [[nodiscard]] WriteCount extra_writes() const;

  friend bool operator==(const ControllerStats&,
                         const ControllerStats&) = default;

  /// One JSON object with every counter plus the derived totals.
  void write_json(JsonWriter& w) const;

  /// Export every counter into `m` under "controller." names (per-purpose
  /// write counts as "controller.writes.<purpose>").
  void publish(MetricsRegistry& m) const;

  /// Checkpoint/resume (fleet harness): byte-exact counter round-trip so
  /// a resumed controller continues the journal sequence numbers (seq ==
  /// demand_writes) and the report totals of an uninterrupted run.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);
};

/// Coarse serving-fitness signal derived from the fault-tolerance state:
/// the input a service front-end's per-shard health state machine
/// consumes. kDegraded means the spare pool is being consumed (pages
/// have been retired); kFailed means a page died with no spare left —
/// the device can no longer serve its full address space.
enum class ControllerAvailability : std::uint8_t {
  kAvailable = 0,
  kDegraded,
  kFailed,
};

[[nodiscard]] std::string to_string(ControllerAvailability a);

/// Availability plus backend-specific serving-quality detail. The
/// service-layer health model consumes this richer signal: a hybrid
/// device whose DRAM cache is thrashing is still *available* but serves
/// every write at PCM cost, which the per-shard model can choose to
/// treat as degraded.
struct AvailabilitySignal {
  ControllerAvailability state = ControllerAvailability::kAvailable;
  /// Hybrid backend only: fraction of front-end writes absorbed by the
  /// DRAM cache so far, in [0,1]. Negative when the backend has no
  /// cache (PCM, NOR) — "no signal", not "zero hit rate".
  double cache_hit_rate = -1.0;
};

/// `Wl` is WearLeveler or a final scheme class, `Dev` Device or a final
/// device class; see MemoryController below.
template <class Wl, class Dev>
class BasicMemoryController final : public WriteSink {
 public:
  /// `device` and `wl` must outlive the controller. With
  /// `enable_timing == false`, submit() returns 0 and only wear and
  /// counters are tracked (the fast path for whole-lifetime simulation).
  BasicMemoryController(Dev& device, Wl& wl, const Config& config,
                        bool enable_timing);

  /// Serve one request arriving at `now`; returns its response latency.
  Cycles submit(const MemoryRequest& req, Cycles now);

  /// Serve `count` back-to-back demand writes arriving at `now`; returns
  /// the latency until the last one completes. Each write is processed
  /// exactly as submit() would (scheme write, failure drain, per-write
  /// latency sample), so the physical write stream is bit-identical to
  /// submitting them one by one — only the journal traffic differs: the
  /// group is bracketed by BatchBegin/BatchCommit records (chunked at
  /// kMaxJournalBatch addresses) instead of 2*count per-write records,
  /// and an uncommitted chunk rolls back as a unit on recovery.
  Cycles submit_write_batch(const LogicalPageAddr* las, std::size_t count,
                            Cycles now);

  /// Enable crash-consistency journaling: every demand write is bracketed
  /// by WriteBegin/WriteCommit records and every data copy runs under the
  /// two-phase SwapIntent -> copy -> SwapCommit protocol. `journal` must
  /// outlive the controller; pass nullptr to detach. With no journal
  /// attached (the default) the controller's behaviour is bit-for-bit
  /// identical to a build without this feature.
  void attach_journal(MetadataJournal* journal) { journal_ = journal; }
  [[nodiscard]] const MetadataJournal* journal() const { return journal_; }

  /// Enable live metrics: per-request response-latency histograms
  /// ("controller.read_latency_cycles" / "controller.write_latency_cycles",
  /// timing-enabled controllers only). Handles are resolved once here, so
  /// the submit() hot path stays allocation-free. `metrics` must outlive
  /// the controller; nullptr detaches. Detached (the default), behaviour
  /// is bit-identical to a build without this feature.
  void attach_metrics(MetricsRegistry* metrics);
  /// Record typed events (demand writes, swaps, blocking phases,
  /// retirement, journal records). Only active in TWL_TRACING builds;
  /// the hooks compile out otherwise. `tracer` must outlive the
  /// controller; nullptr detaches.
  void attach_tracer(EventTracer* tracer) { tracer_ = tracer; }

  /// End-of-run export: counters (ControllerStats::publish), the per-bank
  /// occupancy histogram "timing.bank_busy_cycles" (timing-enabled only)
  /// and the scheme's append_stats() pairs as "wl.<label>" gauges.
  void publish_metrics(MetricsRegistry& m) const;

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  /// Checkpoint/resume (fleet harness): reinstate counters captured from
  /// another controller's stats() so journal sequence numbers and report
  /// totals continue seamlessly. Only valid between requests on a
  /// timing-disabled controller without retirement — the configurations
  /// whose entire mutable state is the counter block.
  void restore_stats(const ControllerStats& stats);
  /// End-of-life: first page death without retirement, with the spare
  /// pool exhausted — identical to Device::failed() when retirement is
  /// not configured.
  [[nodiscard]] bool device_failed() const {
    return retirement_ ? fatal_failure_ : device_->failed();
  }
  /// Availability for admission control: failed once device_failed(),
  /// degraded while retirement is consuming spares, available otherwise.
  [[nodiscard]] ControllerAvailability availability() const {
    if (device_failed()) return ControllerAvailability::kFailed;
    if (stats_.pages_retired > 0 || stats_.unretired_failures > 0) {
      return ControllerAvailability::kDegraded;
    }
    return ControllerAvailability::kAvailable;
  }
  /// availability() plus the hybrid cache hit rate when the backing
  /// device is a HybridDevice (negative otherwise).
  [[nodiscard]] AvailabilitySignal availability_signal() const;
  [[nodiscard]] const Dev& device() const { return *device_; }
  [[nodiscard]] const Wl& wear_leveler() const { return *wl_; }
  [[nodiscard]] bool retirement_active() const {
    return retirement_.has_value();
  }
  /// Valid only when retirement_active().
  [[nodiscard]] const RetirementTable& retirement() const {
    return *retirement_;
  }

  // WriteSink implementation (called back by the scheme during submit).
  void demand_write(PhysicalPageAddr pa, LogicalPageAddr la) override;
  void migrate(PhysicalPageAddr from, PhysicalPageAddr to,
               WritePurpose purpose) override;
  void swap_pages(PhysicalPageAddr a, PhysicalPageAddr b,
                  WritePurpose purpose) override;
  void engine_delay(Cycles cycles) override;
  void erase_unit(PhysicalPageAddr pa) override;
  void begin_blocking() override;
  void end_blocking() override;

 private:
  /// Scheme address -> device address through the retirement indirection.
  [[nodiscard]] PhysicalPageAddr to_device(PhysicalPageAddr pa) const {
    return retirement_ ? retirement_->to_device(pa) : pa;
  }

  void charge_write(PhysicalPageAddr pa, WritePurpose purpose);
  void charge_read(PhysicalPageAddr pa);
  /// charge_write on an already-redirected device address.
  void device_write(PhysicalPageAddr device_pa, WritePurpose purpose);
  void device_read(PhysicalPageAddr device_pa);
  /// Drain the newly-worn queue: retire onto spares while they last,
  /// otherwise deliver on_page_failed and latch device failure.
  void handle_failures();

  Dev* device_;
  Wl* wl_;
  PcmTiming timing_;
  bool timing_enabled_;
  bool migration_wear_;
  Cycles chain_ = 0;  ///< Completion time of the op chain being built.
  bool in_blocking_ = false;
  std::optional<RetirementTable> retirement_;
  MetadataJournal* journal_ = nullptr;
  EventTracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  LogHistogram* read_latency_hist_ = nullptr;   ///< Cached handle.
  LogHistogram* write_latency_hist_ = nullptr;  ///< Cached handle.
  bool fatal_failure_ = false;
  std::vector<PhysicalPageAddr> newly_worn_;  ///< Failure notification queue.
  ControllerStats stats_;
};

/// The controller over the scheme and device interfaces: it serves any
/// scheme on any backend.
using MemoryController = BasicMemoryController<WearLeveler, Device>;

extern template class BasicMemoryController<WearLeveler, Device>;

}  // namespace twl
