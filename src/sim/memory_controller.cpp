#include "sim/memory_controller.h"

#include <algorithm>
#include <cassert>

#include "device/hybrid.h"
#include "obs/metrics.h"
#include "recovery/journal.h"
#include "recovery/snapshot.h"
#include "sim/dispatch.h"

namespace twl {

std::string to_string(ControllerAvailability a) {
  switch (a) {
    case ControllerAvailability::kAvailable:
      return "available";
    case ControllerAvailability::kDegraded:
      return "degraded";
    case ControllerAvailability::kFailed:
      return "failed";
  }
  return "unknown";
}

template <class Wl, class Dev>
AvailabilitySignal BasicMemoryController<Wl, Dev>::availability_signal()
    const {
  AvailabilitySignal sig;
  sig.state = availability();
  // Through the interface: a typed Dev such as PcmDevice cannot be cast
  // to HybridDevice.
  const Device& device = *device_;
  if (device.backend() == DeviceBackend::kHybrid) {
    const auto& hybrid = static_cast<const HybridDevice&>(device);
    const std::uint64_t accesses = hybrid.cache_hits() + hybrid.cache_misses();
    // No front-end traffic yet: report a full cache rather than a
    // spurious 0% that would trip a min-hit-rate health gate at boot.
    sig.cache_hit_rate =
        accesses == 0 ? 1.0
                      : static_cast<double>(hybrid.cache_hits()) /
                            static_cast<double>(accesses);
  }
  return sig;
}

WriteCount ControllerStats::physical_writes() const {
  WriteCount total = 0;
  for (WriteCount w : writes_by_purpose) total += w;
  return total;
}

WriteCount ControllerStats::extra_writes() const {
  return physical_writes() -
         writes_by_purpose[static_cast<std::size_t>(WritePurpose::kDemand)];
}

void ControllerStats::publish(MetricsRegistry& m) const {
  m.counter("controller.demand_writes").add(demand_writes);
  m.counter("controller.reads").add(reads);
  for (std::size_t p = 0; p < kNumWritePurposes; ++p) {
    m.counter("controller.writes." +
              to_string(static_cast<WritePurpose>(p)))
        .add(writes_by_purpose[p]);
  }
  m.counter("controller.migration_reads").add(migration_reads);
  m.counter("controller.blocking_events").add(blocking_events);
  m.counter("controller.pages_retired").add(pages_retired);
  m.counter("controller.unretired_failures").add(unretired_failures);
  m.counter("controller.physical_writes").add(physical_writes());
  m.counter("controller.extra_writes").add(extra_writes());
}

void ControllerStats::save_state(SnapshotWriter& w) const {
  w.put_u64(demand_writes);
  w.put_u64(reads);
  for (WriteCount c : writes_by_purpose) w.put_u64(c);
  w.put_u64(migration_reads);
  w.put_u64(blocking_events);
  w.put_u32(pages_retired);
  w.put_u32(unretired_failures);
}

void ControllerStats::load_state(SnapshotReader& r) {
  demand_writes = r.get_u64();
  reads = r.get_u64();
  for (WriteCount& c : writes_by_purpose) c = r.get_u64();
  migration_reads = r.get_u64();
  blocking_events = r.get_u64();
  pages_retired = r.get_u32();
  unretired_failures = r.get_u32();
}

template <class Wl, class Dev>
BasicMemoryController<Wl, Dev>::BasicMemoryController(Dev& device, Wl& wl,
                                                      const Config& config,
                                                      bool enable_timing)
    : device_(&device),
      wl_(&wl),
      timing_(config.geometry, config.timing),
      timing_enabled_(enable_timing),
      migration_wear_(config.migration_wear) {
  if (config.fault.retirement_enabled()) {
    assert(config.fault.spare_pages < device.pages());
    retirement_.emplace(device.pages(), config.fault.spare_pages);
  }
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::attach_metrics(
    MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    read_latency_hist_ = nullptr;
    write_latency_hist_ = nullptr;
    return;
  }
  // Resolve handles once; registry references are stable, so submit()
  // records without any map lookup or allocation.
  read_latency_hist_ = &metrics_->histogram("controller.read_latency_cycles");
  write_latency_hist_ =
      &metrics_->histogram("controller.write_latency_cycles");
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::publish_metrics(
    MetricsRegistry& m) const {
  stats_.publish(m);
  if (timing_enabled_) {
    LogHistogram& occupancy = m.histogram("timing.bank_busy_cycles");
    for (std::uint32_t b = 0; b < timing_.banks(); ++b) {
      occupancy.add(timing_.bank_busy_cycles(b));
    }
  }
  std::vector<std::pair<std::string, double>> scheme_stats;
  wl_->append_stats(scheme_stats);
  for (const auto& [label, value] : scheme_stats) {
    m.gauge("wl." + label).set(value);
  }
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::restore_stats(
    const ControllerStats& stats) {
  assert(!timing_enabled_ && !retirement_ &&
         "restore_stats covers counter-only controller state");
  stats_ = stats;
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::device_write(PhysicalPageAddr device_pa,
                                                  WritePurpose purpose) {
  Cycles extra = 0;
  if (migration_wear_ || purpose == WritePurpose::kDemand) {
    extra = device_->apply_write(device_pa, newly_worn_);
  }
  ++stats_.writes_by_purpose[static_cast<std::size_t>(purpose)];
  if (timing_enabled_) {
    chain_ = timing_.service(device_pa, Op::kWrite, chain_).done;
    // Backend surcharge beyond the PCM timing model (0 for PCM; the
    // block-erase time when a NOR write triggers an in-place erase).
    if (extra != 0) chain_ = sat_add_u64(chain_, extra);
  }
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::device_read(
    PhysicalPageAddr device_pa) {
  ++stats_.migration_reads;
  if (timing_enabled_) {
    chain_ = timing_.service(device_pa, Op::kRead, chain_).done;
  }
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::charge_write(PhysicalPageAddr pa,
                                                  WritePurpose purpose) {
  device_write(to_device(pa), purpose);
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::charge_read(PhysicalPageAddr pa) {
  device_read(to_device(pa));
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::demand_write(PhysicalPageAddr pa,
                                                  LogicalPageAddr la) {
  (void)la;  // The data payload; wear and timing do not depend on it.
  TWL_TRACE(tracer_, TraceEventType::kDemandWrite, pa.value(), la.value());
  charge_write(pa, WritePurpose::kDemand);
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::migrate(PhysicalPageAddr from,
                                             PhysicalPageAddr to,
                                             WritePurpose purpose) {
  // Two-phase protocol: log the intent, copy, commit. A crash between
  // intent and commit leaves the copy repairable from the scratch frame
  // (DESIGN.md); the mapping itself is restored by journal replay.
  TWL_TRACE(tracer_, TraceEventType::kSwapBegin, from.value(), to.value());
  if (journal_) {
    journal_->append_swap_intent(from, to, SwapKind::kMigrate);
    TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
  }
  charge_read(from);
  charge_write(to, purpose);
  if (journal_) {
    journal_->append_swap_commit();
    TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
  }
  TWL_TRACE(tracer_, TraceEventType::kSwapCommit, from.value(), to.value());
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::swap_pages(PhysicalPageAddr a,
                                                PhysicalPageAddr b,
                                                WritePurpose purpose) {
  TWL_TRACE(tracer_, TraceEventType::kSwapBegin, a.value(), b.value());
  if (journal_) {
    journal_->append_swap_intent(a, b, SwapKind::kExchange);
    TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
  }
  // Both pages are buffered in the controller, then rewritten exchanged.
  charge_read(a);
  charge_read(b);
  charge_write(a, purpose);
  charge_write(b, purpose);
  if (journal_) {
    journal_->append_swap_commit();
    TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
  }
  TWL_TRACE(tracer_, TraceEventType::kSwapCommit, a.value(), b.value());
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::engine_delay(Cycles cycles) {
  if (timing_enabled_) chain_ = sat_add_u64(chain_, cycles);
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::erase_unit(PhysicalPageAddr pa) {
  const Cycles extra = device_->apply_erase(to_device(pa), newly_worn_);
  if (timing_enabled_ && extra != 0) chain_ = sat_add_u64(chain_, extra);
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::begin_blocking() {
  in_blocking_ = true;
  ++stats_.blocking_events;
  TWL_TRACE(tracer_, TraceEventType::kBlockingBegin);
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::end_blocking() {
  in_blocking_ = false;
  TWL_TRACE(tracer_, TraceEventType::kBlockingEnd);
  if (timing_enabled_) {
    // The reorganization froze the whole memory until its last operation
    // completed (footnote 1: swaps block all requests).
    timing_.block_all_until(chain_);
  }
}

template <class Wl, class Dev>
void BasicMemoryController<Wl, Dev>::handle_failures() {
  // A salvage write may itself wear out its target (it lands on a spare),
  // so keep draining until the queue is empty.
  while (!newly_worn_.empty()) {
    const PhysicalPageAddr dead = newly_worn_.back();
    newly_worn_.pop_back();
    if (!retirement_) {
      wl_->on_page_failed(dead, *this);
      continue;
    }
    const PhysicalPageAddr owner = retirement_->owner_of(dead);
    if (const auto spare = retirement_->retire(owner)) {
      ++stats_.pages_retired;
      TWL_TRACE(tracer_, TraceEventType::kPageRetired, owner.value(),
                spare->value());
      // Salvage the page image onto the spare: ECP kept the page readable
      // through its last correctable state, so a 1-read + 1-write copy
      // rebinds the owner with its data intact.
      device_read(dead);
      device_write(*spare, WritePurpose::kRetirement);
      wl_->on_page_retired(owner, *spare, device_->endurance(*spare), *this);
    } else {
      ++stats_.unretired_failures;
      fatal_failure_ = true;
      wl_->on_page_failed(owner, *this);
    }
  }
}

template <class Wl, class Dev>
Cycles BasicMemoryController<Wl, Dev>::submit(const MemoryRequest& req,
                                              Cycles now) {
  if (req.op == Op::kRead) {
    ++stats_.reads;
    const PhysicalPageAddr pa = to_device(wl_->map_read(req.addr));
    if (!timing_enabled_) return 0;
    const Cycles start = now + wl_->read_indirection_cycles();
    const Cycles latency = timing_.service(pa, Op::kRead, start).done - now;
    if (read_latency_hist_ != nullptr) read_latency_hist_->add(latency);
    return latency;
  }

  ++stats_.demand_writes;
  const std::uint64_t seq = stats_.demand_writes;
  if (journal_) {
    journal_->append_write_begin(seq, req.addr);
    TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
  }
  chain_ = timing_enabled_ ? now + wl_->read_indirection_cycles() : 0;
  wl_->write(req.addr, *this);
  assert(!in_blocking_ && "scheme left a blocking section open");

  // Deliver permanent-failure notifications after the request completes;
  // a salvage action may itself wear out its target, so drain the queue.
  handle_failures();
  if (journal_) {
    journal_->append_write_commit(seq);
    TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
  }
  if (!timing_enabled_) return 0;
  const Cycles latency = chain_ - now;
  if (write_latency_hist_ != nullptr) write_latency_hist_->add(latency);
  return latency;
}

template <class Wl, class Dev>
Cycles BasicMemoryController<Wl, Dev>::submit_write_batch(
    const LogicalPageAddr* las, std::size_t count, Cycles now) {
  Cycles done = now;
  std::size_t i = 0;
  while (i < count) {
    const std::size_t n = std::min(count - i, kMaxJournalBatch);
    // Sequence numbers keep counting demand writes one by one, so a
    // journal that mixes batch and single-write brackets stays totally
    // ordered by seq.
    const std::uint64_t first_seq = stats_.demand_writes + 1;
    if (journal_) {
      journal_->append_batch_begin(first_seq, las + i, n);
      TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
    }
    for (std::size_t j = 0; j < n; ++j) {
      ++stats_.demand_writes;
      chain_ = timing_enabled_ ? done + wl_->read_indirection_cycles() : 0;
      wl_->write(las[i + j], *this);
      assert(!in_blocking_ && "scheme left a blocking section open");
      handle_failures();
      if (timing_enabled_) {
        // Per-write latency sample, as submit() would have recorded had
        // the caller issued each write at the previous one's completion.
        if (write_latency_hist_ != nullptr) {
          write_latency_hist_->add(chain_ - done);
        }
        done = chain_;
      }
    }
    if (journal_) {
      journal_->append_batch_commit(first_seq, n);
      TWL_TRACE(tracer_, TraceEventType::kJournalRecord);
    }
    i += n;
  }
  return timing_enabled_ ? done - now : 0;
}

// The generic instance, and every typed one sim/dispatch.h lists.
template class BasicMemoryController<WearLeveler, Device>;
template class BasicMemoryController<TossUpWl, PcmDevice>;

}  // namespace twl
