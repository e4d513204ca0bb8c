#include "sim/crash_sim.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "device/factory.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "sim/memory_controller.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace twl {

namespace {

/// Write-only stream over the scheme's logical space: the synthetic
/// mixture with reads disabled, folded like LifetimeSimulator folds it.
class WriteStream {
 public:
  WriteStream(const CrashSimParams& params, std::uint64_t logical_pages,
              std::uint64_t seed)
      : source_(make_params(params, logical_pages, seed), "crash"),
        space_(logical_pages) {}

  LogicalPageAddr next() {
    return LogicalPageAddr(source_.next_write().value() % space_);
  }

 private:
  static SyntheticParams make_params(const CrashSimParams& params,
                                     std::uint64_t logical_pages,
                                     std::uint64_t seed) {
    SyntheticParams sp;
    sp.pages = logical_pages;
    sp.zipf_s = params.zipf_s;
    sp.stream_frac = params.stream_frac;
    sp.read_frac = 0.0;  // Reads touch no metadata; skip them.
    sp.seed = seed;
    return sp;
  }

  SyntheticTrace source_;
  std::uint64_t space_;
};

}  // namespace

RecoveryVerdicts verify_recovery(const RecoveredCrash& crash,
                                 const RecoveryReference& reference) {
  RecoveryVerdicts v;
  const std::uint64_t k = crash.crash_write;
  const std::uint64_t committed = crash.committed_writes;
  const bool commit_survived = committed == k;
  const bool rolled_back = crash.rolled_back_la.has_value();

  // Invariant 1: the recovered mapping is a bijection.
  v.mapping_bijective = crash.recovered.invariants_hold();

  // Invariant 3: recovery lands on exactly k or k-1 committed writes; a
  // write rolls back only when its commit is missing, and the rolled
  // back write is the interrupted one. (When the WriteBegin itself was
  // lost to corruption, recovery legitimately reports no rollback.)
  v.rollback_consistent =
      (commit_survived || committed + 1 == k) &&
      (!commit_survived || !rolled_back) &&
      (!rolled_back || *crash.rolled_back_la == crash.crash_la);

  // Reference: re-execute exactly the committed writes since its starting
  // state on a device wound back to that state's wear.
  const auto ref_device =
      make_latch_device(reference.endurance, reference.config);
  if (reference.wear != nullptr) load_state_blob(*ref_device, *reference.wear);
  const auto ref_scheme = make_wear_leveler_spec(
      reference.scheme_spec, reference.endurance, reference.config);
  if (reference.snapshot != nullptr) {
    restore_snapshot(*ref_scheme, *reference.snapshot);
  }
  MemoryController ref_controller(*ref_device, *ref_scheme, reference.config,
                                  /*enable_timing=*/false);
  const std::size_t replayed = std::min<std::uint64_t>(
      committed - std::min(committed, reference.base),
      reference.addresses.size());
  for (std::size_t i = 0; i < replayed; ++i) {
    ref_controller.submit({Op::kWrite, reference.addresses[i]}, 0);
  }

  // Invariant 2: byte-exact metadata equality with the reference — no
  // committed write lost, none double-applied.
  v.state_matches_reference =
      take_snapshot(crash.recovered) == take_snapshot(*ref_scheme);

  // Invariant 4: wear drift between the crashed device and the reference
  // is at most the interrupted write's physical writes (zero when its
  // commit survived).
  std::uint64_t drift = 0;
  for (std::uint64_t p = 0; p < crash.device.pages(); ++p) {
    const PhysicalPageAddr pa(static_cast<std::uint32_t>(p));
    const WriteCount a = crash.device.writes(pa);
    const WriteCount b = ref_device->writes(pa);
    drift += (a > b) ? (a - b) : (b - a);
  }
  v.wear_drift_bounded =
      drift <= (commit_survived ? 0 : crash.in_flight_writes);

  // Invariant 5: post-recovery determinism — the continued scheme, which
  // starts from the recovered state, and the reference, continued on the
  // same addresses, stay byte-identical. When `continued` is the recovered
  // object itself, this also catches replay damage to state save_state
  // does not store, which a clone rebuilt from its snapshot would not carry.
  const auto cont_device =
      make_latch_device(reference.endurance, reference.config);
  MemoryController cont_controller(*cont_device, crash.continued,
                                   reference.config,
                                   /*enable_timing=*/false);
  for (std::size_t i = replayed; i < reference.addresses.size(); ++i) {
    cont_controller.submit({Op::kWrite, reference.addresses[i]}, 0);
    ref_controller.submit({Op::kWrite, reference.addresses[i]}, 0);
  }
  v.continuation_matches =
      take_snapshot(crash.continued) == take_snapshot(*ref_scheme) &&
      crash.continued.invariants_hold();
  return v;
}

void CrashTrialResult::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("crash_write", crash_write);
  w.kv("committed_writes", committed_writes);
  w.kv("commit_survived", commit_survived);
  w.kv("torn_tail", torn_tail);
  w.kv("garbage_tail", garbage_tail);
  w.kv("cut_bytes", cut_bytes);
  w.kv("orphan_swap_intents", orphan_swap_intents);
  w.kv("replayed_writes", replayed_writes);
  w.kv("snapshots_taken", snapshots_taken);
  w.kv("journal_bytes_total", journal_bytes_total);
  w.kv("mapping_bijective", verdicts.mapping_bijective);
  w.kv("state_matches_reference", verdicts.state_matches_reference);
  w.kv("rollback_consistent", verdicts.rollback_consistent);
  w.kv("wear_drift_bounded", verdicts.wear_drift_bounded);
  w.kv("continuation_matches", verdicts.continuation_matches);
  w.kv("all_invariants_hold", verdicts.all_hold());
  w.end_object();
}

CrashSimulator::CrashSimulator(const Config& config,
                               const CrashSimParams& params)
    : config_(config),
      params_(params),
      endurance_(config.geometry.pages(), config.endurance, config.seed) {
  config_.validate();
  if (params_.total_writes == 0 || params_.snapshot_interval == 0) {
    throw std::invalid_argument(
        "crash trials need at least one demand write and a positive "
        "snapshot interval");
  }
  if (config_.fault.enabled()) {
    throw std::invalid_argument(
        "crash trials require the binary wear-out model (no fault model, "
        "no retirement): crash recovery replays demand writes only");
  }
}

CrashTrialResult CrashSimulator::run_trial(std::uint64_t trial,
                                           MetricsRegistry* metrics,
                                           EventTracer* tracer) const {
  CrashTrialResult result;
  SplitMix64 mix(config_.seed ^ (0xC4A5'11D0'0000'0000ULL + trial));
  const std::uint64_t workload_seed = mix.next();
  XorShift64Star rng(mix.next());

  const std::uint64_t k = 1 + rng.next_below(params_.total_writes);
  result.crash_write = k;

  // --- Journaled run, interrupted during demand write k. ---
  const auto device_ptr = make_latch_device(endurance_, config_);
  Device& device = *device_ptr;
  const auto wl =
      make_wear_leveler_spec(params_.scheme_spec, endurance_, config_);
  MemoryController controller(device, *wl, config_,
                              /*enable_timing=*/false);
  controller.attach_metrics(metrics);
  controller.attach_tracer(tracer);
  MetadataJournal journal;
  controller.attach_journal(&journal);
  WriteStream stream(params_, wl->logical_pages(), workload_seed);

  std::vector<std::uint8_t> snapshot_blob = take_snapshot(*wl);
  result.snapshots_taken = 1;
  std::uint64_t snapshot_base = 0;  ///< Demand writes the snapshot covers.

  // Demand writes 1..k, extended below to total_writes for invariant 5's
  // continuation: the reference replays this one stream.
  std::vector<LogicalPageAddr> addresses;
  addresses.reserve(params_.total_writes);
  std::uint64_t journal_bytes_before_k = 0;
  std::uint64_t phys_before_k = 0;
  for (std::uint64_t i = 1; i <= k; ++i) {
    addresses.push_back(stream.next());
    if (i == k) {
      journal_bytes_before_k = journal.bytes().size();
      phys_before_k = controller.stats().physical_writes();
    }
    controller.submit({Op::kWrite, addresses.back()}, 0);
    if (i < k && i % params_.snapshot_interval == 0) {
      snapshot_blob = take_snapshot(*wl);
      journal.truncate();
      snapshot_base = i;
      ++result.snapshots_taken;
    }
  }
  const std::uint64_t in_flight_writes =
      controller.stats().physical_writes() - phys_before_k;

  // --- Cut the journal at a uniform random byte within write k's
  // appended range. A cut inside a record is a torn append; a cut between
  // a SwapIntent and its SwapCommit is a mid-swap crash; a cut at the very
  // end means the commit survived. ---
  const std::uint64_t appended = journal.bytes().size() -
                                 journal_bytes_before_k;
  assert(appended > 0);  // WriteBegin is logged before the scheme runs.
  const std::uint64_t cut =
      journal_bytes_before_k + 1 + rng.next_below(appended);
  std::vector<std::uint8_t> surviving(
      journal.bytes().begin(),
      journal.bytes().begin() + static_cast<std::ptrdiff_t>(cut));
  result.cut_bytes = cut;
  result.journal_bytes_total = journal.total_bytes_appended();
  TWL_TRACE(tracer, TraceEventType::kCrash, k, cut);

  // A quarter of the trials model a partially-programmed log tail: the
  // bytes after the crash cut hold garbage instead of ending cleanly.
  if (rng.next_below(4) == 0) {
    result.garbage_tail = true;
    const std::uint64_t garbage = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < garbage; ++i) {
      surviving.push_back(static_cast<std::uint8_t>(rng.next()));
    }
  }

  // --- Recover a fresh instance from snapshot + surviving journal. ---
  const auto recovered =
      make_wear_leveler_spec(params_.scheme_spec, endurance_, config_);
  const RecoveryOutcome outcome =
      recover(*recovered, snapshot_blob, surviving);
  result.torn_tail = outcome.torn_tail;
  result.replayed_writes = outcome.replayed_writes;
  result.orphan_swap_intents = outcome.orphan_swap_intents;
  TWL_TRACE(tracer, TraceEventType::kRecover, outcome.replayed_writes);
  const std::uint64_t committed = snapshot_base + outcome.replayed_writes;
  result.committed_writes = committed;
  result.commit_survived = committed == k;

  // --- Verify against a crash-free run of exactly the committed writes
  // from fresh state, continued to total_writes. ---
  if (params_.verify_continuation) {
    while (addresses.size() < params_.total_writes) {
      addresses.push_back(stream.next());
    }
  }
  result.verdicts = verify_recovery(
      RecoveredCrash{.recovered = *recovered,
                     .continued = *recovered,
                     .device = device,
                     .crash_write = k,
                     .crash_la = addresses[k - 1],
                     .in_flight_writes = in_flight_writes,
                     .committed_writes = committed,
                     .rolled_back_la = outcome.rolled_back_la},
      RecoveryReference{.scheme_spec = params_.scheme_spec,
                        .endurance = endurance_,
                        .config = config_,
                        .addresses = addresses});

  if (metrics != nullptr) {
    controller.publish_metrics(*metrics);
    metrics->counter("sim.crash.trials").inc();
    if (!result.verdicts.all_hold()) {
      metrics->counter("sim.crash.invariant_failures").inc();
    }
    metrics->counter("sim.crash.replayed_writes")
        .add(result.replayed_writes);
    metrics->counter("sim.crash.torn_tails").add(result.torn_tail ? 1 : 0);
    metrics->counter("sim.crash.orphan_swap_intents")
        .add(result.orphan_swap_intents);
    metrics->histogram("sim.crash.journal_bytes")
        .add(result.journal_bytes_total);
  }
  return result;
}

}  // namespace twl
