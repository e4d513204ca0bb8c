#include "service/shard.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/checksum.h"
#include "device/factory.h"
#include "obs/metrics.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "service/tenant.h"
#include "wl/factory.h"
#include "wl/wear_leveler.h"

namespace twl {

namespace {

/// Writes the recovered scheme continues with after a crash, in the
/// invariant-5 determinism probe.
constexpr std::uint64_t kContinuationProbeWrites = 32;

MemoryRequest write_request(LogicalPageAddr la) {
  return MemoryRequest{Op::kWrite, la};
}

/// Independent per-shard seed streams, all derived from the service seed
/// so the whole service is one deterministic function of its config.
struct ShardSeeds {
  std::uint64_t endurance = 0;  ///< PV map draw.
  std::uint64_t scheme = 0;     ///< Scheme-internal RNG streams.
  std::uint64_t schedule = 0;   ///< Chaos event schedule.
  std::uint64_t chaos_rng = 0;  ///< Crash-cut / corruption draws.
  std::uint64_t probe = 0;      ///< Invariant-5 probe addresses.
};

ShardSeeds shard_seeds(std::uint64_t service_seed, std::uint32_t shard) {
  SplitMix64 mix(service_seed ^ (0x5EAF'1CE5'0000'0000ULL + shard));
  ShardSeeds s;
  s.endurance = mix.next();
  s.scheme = mix.next();
  s.schedule = mix.next();
  s.chaos_rng = mix.next();
  s.probe = mix.next();
  return s;
}

Config per_shard_config(const Config& service_config,
                        const ShardSeeds& seeds) {
  Config c = service_config;
  c.seed = seeds.scheme;
  return c;
}

std::vector<std::uint8_t> wear_blob(const Device& device) {
  SnapshotWriter w;
  device.save_state(w);
  return w.take();
}

}  // namespace

std::string to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kQuarantined:
      return "quarantined";
    case HealthState::kRecovering:
      return "recovering";
  }
  return "unknown";
}

/// Everything the invariant verifier needs to know about one crash.
struct ServiceShard::CrashContext {
  LogicalPageAddr crash_la{};
  std::uint64_t k = 0;          ///< Interrupted accepted index (1-based).
  std::uint64_t in_flight = 0;  ///< Physical writes of the attempt.
  std::uint64_t committed = 0;  ///< base + replayed.
  const std::vector<std::uint8_t>* snapshot = nullptr;  ///< Used snapshot.
  std::uint64_t base = 0;                       ///< Writes it covers.
  const std::vector<std::uint8_t>* wear = nullptr;  ///< Wear at base.
  bool rolled_back = false;
  LogicalPageAddr rolled_back_la{};
};

ServiceShard::ServiceShard(const Config& config, const ShardParams& params,
                           std::uint32_t index)
    : index_(index),
      config_(per_shard_config(config, shard_seeds(config.seed, index))),
      params_(params),
      endurance_(config_.geometry.pages(), config_.endurance,
                 shard_seeds(config.seed, index).endurance),
      device_(make_latch_device(endurance_, config_)),
      wl_(make_wear_leveler_spec(params_.scheme_spec, endurance_, config_)),
      controller_(std::make_unique<MemoryController>(
          *device_, *wl_, config_, /*enable_timing=*/false)),
      schedule_(make_chaos_schedule(params_.chaos, params_.horizon_writes,
                                    shard_seeds(config.seed, index).schedule)),
      chaos_rng_(shard_seeds(config.seed, index).chaos_rng),
      probe_seed_(shard_seeds(config.seed, index).probe) {
  if (params_.chaos.enabled() && config_.fault.enabled()) {
    throw std::invalid_argument(
        "service shards require the binary wear-out model under chaos "
        "(no fault model, no retirement): crash recovery replays demand "
        "writes only");
  }
  if (!params_.chaos.enabled()) {
    // No chaos: journaling still runs (the recovery artifacts are what
    // a production controller would persist), but no schedule exists.
    assert(schedule_.empty());
  }
  controller_->attach_journal(&journal_);
  snapshot_cur_ = take_snapshot(*wl_);
  snapshot_prev_ = snapshot_cur_;
  wear_cur_ = wear_blob(*device_);
  wear_prev_ = wear_cur_;
}

ServiceShard::~ServiceShard() = default;

std::uint64_t ServiceShard::logical_pages() const {
  return wl_->logical_pages();
}

std::unique_ptr<WearLeveler> ServiceShard::fresh_scheme() const {
  return make_wear_leveler_spec(params_.scheme_spec, endurance_, config_);
}

std::uint32_t ServiceShard::log_at(std::uint64_t n) const {
  assert(n > log_base_ && n - log_base_ <= log_.size());
  return log_[static_cast<std::size_t>(n - 1 - log_base_)];
}

void ServiceShard::rotate_snapshots() {
  snapshot_prev_ = std::move(snapshot_cur_);
  base_prev_ = base_cur_;
  wear_prev_ = std::move(wear_cur_);
  retained_journal_ = journal_.bytes();
  journal_.truncate();
  snapshot_cur_ = take_snapshot(*wl_);
  base_cur_ = accepted_;
  wear_cur_ = wear_blob(*device_);
  // The reference replay never reaches further back than base_prev_.
  assert(base_prev_ >= log_base_);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(base_prev_ -
                                                        log_base_));
  log_base_ = base_prev_;
}

void ServiceShard::feed_availability() {
  const AvailabilitySignal sig = controller_->availability_signal();
  switch (sig.state) {
    case ControllerAvailability::kAvailable:
      break;
    case ControllerAvailability::kDegraded:
      // Retirement feed: spares are being consumed. Degraded is sticky —
      // the underlying capacity loss does not heal.
      retire_degraded_ = true;
      health_.store(HealthState::kDegraded, std::memory_order_relaxed);
      break;
    case ControllerAvailability::kFailed:
      dead_.store(true, std::memory_order_relaxed);
      health_.store(HealthState::kQuarantined, std::memory_order_relaxed);
      break;
  }
  // Hybrid cache-thrash gate: a shard whose DRAM cache absorbs too few
  // writes serves everything at PCM cost — hold it degraded until the
  // hit rate recovers. Consulted only after the degraded window's worth
  // of writes has warmed the cache.
  if (params_.min_cache_hit_rate > 0 && sig.cache_hit_rate >= 0 &&
      accepted_ >= params_.degraded_window_writes) {
    if (sig.cache_hit_rate < params_.min_cache_hit_rate) {
      cache_degraded_ = true;
      if (!dead()) {
        health_.store(HealthState::kDegraded, std::memory_order_relaxed);
      }
    } else {
      cache_degraded_ = false;  // Heals; decay_degraded restores healthy.
    }
  }
  last_retired_ = controller_->stats().pages_retired;
}

void ServiceShard::decay_degraded() {
  if (!retire_degraded_ && !cache_degraded_ && !dead() &&
      health_.load(std::memory_order_relaxed) == HealthState::kDegraded) {
    if (degraded_remaining_ > 0) --degraded_remaining_;
    if (degraded_remaining_ == 0) {
      health_.store(HealthState::kHealthy, std::memory_order_relaxed);
    }
  }
}

ShardExecOutcome ServiceShard::execute(LogicalPageAddr local_la) {
  assert(!dead() && "execute() on a dead shard");
  const std::uint64_t k = accepted_ + 1;
  log_.push_back(local_la.value());
  if (params_.keep_history) history_.push_back(local_la.value());

  const ChaosEvent* ev = nullptr;
  if (chaos_cursor_ < schedule_.size() &&
      schedule_[chaos_cursor_].at_write <= k) {
    ev = &schedule_[chaos_cursor_];
    ++chaos_cursor_;
  }

  ShardExecOutcome out;
  if (ev != nullptr) {
    out = inject_crash(*ev, local_la, k);
  } else {
    controller_->submit(write_request(local_la), 0);
    feed_availability();
  }
  accepted_ = k;

  decay_degraded();
  if (accepted_ - base_cur_ >= params_.snapshot_interval_writes) {
    rotate_snapshots();
  }
  return out;
}

ShardBatchOutcome ServiceShard::execute_batch(const LogicalPageAddr* las,
                                              std::size_t count) {
  assert(!dead() && "execute_batch() on a dead shard");
  ShardBatchOutcome out;
  out.penalty_cycles.assign(count, 0);
  std::size_t i = 0;
  while (i < count && !dead()) {
    if (chaos_cursor_ < schedule_.size() &&
        schedule_[chaos_cursor_].at_write <= accepted_ + 1) {
      // A chaos event targets this write: take the single-write crash
      // path so damage windows and recovery semantics are unchanged.
      out.penalty_cycles[i] = execute(las[i]).penalty_cycles;
      ++i;
      ++out.executed;
      continue;
    }
    // Chaos-free run: journaled as one BatchBegin/BatchCommit group.
    // Capped at the next chaos point AND the next snapshot-rotation
    // boundary — a snapshot must cover exactly base_cur_ writes, so
    // rotation may only happen at a write boundary.
    const std::uint64_t until_rotation =
        base_cur_ + params_.snapshot_interval_writes - accepted_;
    std::size_t run = 0;
    while (i + run < count && run < until_rotation) {
      if (chaos_cursor_ < schedule_.size() &&
          schedule_[chaos_cursor_].at_write <= accepted_ + 1 + run) {
        break;
      }
      ++run;
    }
    for (std::size_t j = 0; j < run; ++j) {
      log_.push_back(las[i + j].value());
      if (params_.keep_history) history_.push_back(las[i + j].value());
    }
    controller_->submit_write_batch(las + i, run, 0);
    feed_availability();
    for (std::size_t j = 0; j < run; ++j) {
      ++accepted_;
      decay_degraded();
    }
    if (accepted_ - base_cur_ >= params_.snapshot_interval_writes) {
      rotate_snapshots();
    }
    i += run;
    out.executed += run;
  }
  return out;
}

bool ServiceShard::verify_invariants(const CrashContext& ctx,
                                     const WearLeveler& recovered) const {
  bool ok = true;

  // Invariant 1: the recovered mapping is a bijection.
  ok = ok && recovered.invariants_hold();

  // Invariant 3: recovery lands on exactly k or k-1 committed writes; a
  // write rolls back only when its commit is missing, and the rolled
  // back write is the interrupted one.
  const bool commit_survived = ctx.committed == ctx.k;
  ok = ok && (ctx.committed == ctx.k || ctx.committed + 1 == ctx.k);
  ok = ok && (!commit_survived || !ctx.rolled_back);
  ok = ok && (!ctx.rolled_back || ctx.rolled_back_la == ctx.crash_la);

  // Reference: re-execute exactly the committed writes since the used
  // snapshot — from the shard's accepted log, the addresses live clients
  // actually submitted — on a device wound back to that snapshot's wear.
  const auto ref_device_ptr = make_latch_device(endurance_, config_);
  Device& ref_device = *ref_device_ptr;
  SnapshotReader wr(*ctx.wear);
  ref_device.load_state(wr);
  const auto reference = fresh_scheme();
  restore_snapshot(*reference, *ctx.snapshot);
  MemoryController ref_controller(ref_device, *reference, config_,
                                  /*enable_timing=*/false);
  for (std::uint64_t n = ctx.base + 1; n <= ctx.committed; ++n) {
    ref_controller.submit(write_request(LogicalPageAddr(log_at(n))), 0);
  }

  // Invariant 2: byte-exact metadata equality with the reference — no
  // accepted write lost, none double-applied.
  ok = ok && take_snapshot(recovered) == take_snapshot(*reference);

  // Invariant 4: wear drift between the live device and the reference is
  // at most the interrupted attempt's physical writes (zero when its
  // commit survived).
  std::uint64_t drift = 0;
  for (std::uint64_t p = 0; p < device_->pages(); ++p) {
    const PhysicalPageAddr pa(static_cast<std::uint32_t>(p));
    const WriteCount a = device_->writes(pa);
    const WriteCount b = ref_device.writes(pa);
    drift += (a > b) ? (a - b) : (b - a);
  }
  ok = ok && drift <= (commit_survived ? 0 : ctx.in_flight);

  // Invariant 5: post-recovery determinism — a clone of the recovered
  // scheme and the reference, continued on an identical probe stream,
  // stay byte-identical. (The shard has no workload stream of its own,
  // so the probe addresses are a seeded synthetic continuation.)
  const auto clone = fresh_scheme();
  restore_snapshot(*clone, take_snapshot(recovered));
  const auto clone_device_ptr = make_latch_device(endurance_, config_);
  Device& clone_device = *clone_device_ptr;
  MemoryController clone_controller(clone_device, *clone, config_,
                                    /*enable_timing=*/false);
  SplitMix64 probe(probe_seed_ ^ (0x9E37'79B9'7F4A'7C15ULL * ctx.k));
  const std::uint64_t pages = wl_->logical_pages();
  for (std::uint64_t i = 0; i < kContinuationProbeWrites; ++i) {
    const LogicalPageAddr la(
        static_cast<std::uint32_t>(probe.next() % pages));
    clone_controller.submit(write_request(la), 0);
    ref_controller.submit(write_request(la), 0);
  }
  ok = ok && take_snapshot(*clone) == take_snapshot(*reference) &&
       clone->invariants_hold();

  return ok;
}

ShardExecOutcome ServiceShard::inject_crash(const ChaosEvent& ev,
                                            LogicalPageAddr la,
                                            std::uint64_t k) {
  ++outcome_.crashes;
  ++outcome_.chaos_by_kind[static_cast<std::size_t>(ev.kind)];
  health_.store(HealthState::kQuarantined, std::memory_order_relaxed);

  // Run the interrupted write to completion to learn what the journal
  // *would* have held; the crash is then modeled by what survives of it.
  const std::size_t journal_before = journal_.bytes().size();
  const std::uint64_t phys_before = controller_->stats().physical_writes();
  controller_->submit(write_request(la), 0);
  const std::uint64_t in_flight =
      controller_->stats().physical_writes() - phys_before;
  const ControllerStats stats_at_crash = controller_->stats();
  const std::size_t appended = journal_.bytes().size() - journal_before;
  assert(appended > 0);  // WriteBegin lands before the scheme runs.

  // What survives of the live journal, per chaos kind. The damage window
  // is restricted to the in-flight write's bytes so recovery must land
  // on exactly k or k-1 committed writes.
  std::vector<std::uint8_t> surviving = journal_.bytes();
  const auto cut_mid_write = [&] {
    surviving.resize(journal_before + 1 + chaos_rng_.next_below(appended));
  };
  bool mid_checkpoint = false;
  switch (ev.kind) {
    case ChaosKind::kCrashMidWrite:
    case ChaosKind::kJournalTruncate:
      cut_mid_write();
      break;
    case ChaosKind::kJournalTailBitFlip: {
      const std::uint64_t bit =
          journal_before * 8 + chaos_rng_.next_below(appended * 8);
      surviving[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      break;
    }
    case ChaosKind::kJournalExtend:
      extend_garbage(surviving, chaos_rng_);
      break;
    case ChaosKind::kSnapshotBitFlip:
      flip_random_bit(snapshot_cur_, chaos_rng_);
      cut_mid_write();
      break;
    case ChaosKind::kSnapshotTruncate:
      truncate_random(snapshot_cur_, chaos_rng_);
      cut_mid_write();
      break;
    case ChaosKind::kSnapshotExtend:
      extend_garbage(snapshot_cur_, chaos_rng_);
      cut_mid_write();
      break;
    case ChaosKind::kCrashMidCheckpoint:
      mid_checkpoint = true;  // Journal survives whole; see below.
      break;
  }

  // Recovery attempts, in the order a controller would try them (the
  // fleet protocol): a mid-checkpoint crash leaves a partially written
  // new snapshot (journal not yet truncated); everything else recovers
  // from the current snapshot plus what survived of the live journal,
  // falling back to the previous snapshot plus the retained journal
  // span when the current snapshot is damaged.
  health_.store(HealthState::kRecovering, std::memory_order_relaxed);
  struct Attempt {
    std::vector<std::uint8_t> snapshot;
    std::uint64_t base;
    const std::vector<std::uint8_t>* wear;
    std::vector<std::uint8_t> journal;
  };
  std::vector<Attempt> attempts;
  std::vector<std::uint8_t> wear_now;
  if (mid_checkpoint) {
    std::vector<std::uint8_t> partial = take_snapshot(*wl_);
    partial.resize(1 + chaos_rng_.next_below(partial.size() - 1));
    wear_now = wear_blob(*device_);
    attempts.push_back(Attempt{std::move(partial), k, &wear_now, {}});
    attempts.push_back(Attempt{snapshot_cur_, base_cur_, &wear_cur_,
                               journal_.bytes()});
  } else {
    attempts.push_back(
        Attempt{snapshot_cur_, base_cur_, &wear_cur_, surviving});
    std::vector<std::uint8_t> fallback_journal = retained_journal_;
    fallback_journal.insert(fallback_journal.end(), surviving.begin(),
                            surviving.end());
    attempts.push_back(Attempt{snapshot_prev_, base_prev_, &wear_prev_,
                               std::move(fallback_journal)});
  }

  std::unique_ptr<WearLeveler> recovered;
  RecoveryOutcome recovery;
  const Attempt* used = nullptr;
  for (const Attempt& attempt : attempts) {
    auto candidate = fresh_scheme();
    try {
      recovery = recover(*candidate, attempt.snapshot, attempt.journal);
    } catch (const SnapshotError&) {
      ++outcome_.snapshot_fallbacks;
      continue;
    }
    recovered = std::move(candidate);
    used = &attempt;
    break;
  }
  if (recovered == nullptr) {
    // Unreachable by construction: chaos never damages snapshot_prev.
    throw std::runtime_error("service shard " + std::to_string(index_) +
                             ": no recoverable snapshot at write " +
                             std::to_string(k));
  }
  ++outcome_.recoveries;
  outcome_.replayed_writes += recovery.replayed_writes;

  const std::uint64_t committed = used->base + recovery.replayed_writes;
  const bool commit_survived = committed == k;
  if (!commit_survived) ++outcome_.rollbacks;

  CrashContext ctx;
  ctx.crash_la = la;
  ctx.k = k;
  ctx.in_flight = in_flight;
  ctx.committed = committed;
  ctx.snapshot = &used->snapshot;
  ctx.base = used->base;
  ctx.wear = used->wear;
  ctx.rolled_back = recovery.rolled_back_la.has_value();
  ctx.rolled_back_la = recovery.rolled_back_la.value_or(LogicalPageAddr{});
  if (!verify_invariants(ctx, *recovered)) {
    ++outcome_.invariant_failures;
  }

  // Adopt the recovered scheme: rebuild the controller around it
  // (counters continue, so the published totals include the aborted
  // attempt's real device writes), take a fresh post-recovery snapshot,
  // and — when the interrupted write rolled back — re-submit it: the
  // accepted request is never lost.
  wl_ = std::move(recovered);
  controller_ = std::make_unique<MemoryController>(
      *device_, *wl_, config_, /*enable_timing=*/false);
  controller_->restore_stats(stats_at_crash);
  journal_.truncate();
  controller_->attach_journal(&journal_);
  snapshot_cur_ = take_snapshot(*wl_);
  snapshot_prev_ = snapshot_cur_;
  retained_journal_.clear();
  base_cur_ = committed;
  base_prev_ = committed;
  wear_cur_ = wear_blob(*device_);
  wear_prev_ = wear_cur_;
  // Trim the accepted log to the post-recovery window (committed, k]:
  // the re-based snapshots cover everything before it.
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(committed -
                                                        log_base_));
  log_base_ = committed;
  if (!commit_survived) {
    controller_->submit(write_request(la), 0);
  }

  health_.store(HealthState::kDegraded, std::memory_order_relaxed);
  degraded_remaining_ = params_.degraded_window_writes;
  // Tenant mode: the directory must come back intact from the same
  // recovery pass; damage counts as an invariant failure.
  verify_directory_blob();

  ShardExecOutcome out;
  out.crashed = true;
  out.penalty_cycles = params_.quarantine_cycles +
                       params_.recovery_base_cycles +
                       params_.recovery_per_replay_cycles * recovery.replayed_writes;
  return out;
}

void ServiceShard::verify_directory_blob() {
  if (params_.directory_blob.empty()) return;
  bool ok = false;
  try {
    const TenantDirectory restored =
        TenantDirectory::deserialize(params_.directory_blob);
    // Byte round-trip plus shape agreement with the live scheme: the
    // restored carve must still describe this shard's local space.
    ok = restored.serialize() == params_.directory_blob &&
         restored.local_pages() == wl_->logical_pages();
  } catch (const SnapshotError&) {
    ok = false;
  }
  if (!ok) {
    directory_verified_ = false;
    ++outcome_.invariant_failures;
  }
}

std::uint32_t ServiceShard::state_digest() const {
  // Digest the snapshot *body*, excluding its own 4-byte CRC tail: by
  // the CRC residue property, crc32 over message ++ crc32(message) is a
  // constant and would erase the scheme state from the digest.
  const std::vector<std::uint8_t> scheme = take_snapshot(*wl_);
  const std::vector<std::uint8_t> wear = wear_blob(*device_);
  const std::size_t body = scheme.size() >= 4 ? scheme.size() - 4
                                              : scheme.size();
  const std::uint32_t scheme_crc = crc32(scheme.data(), body);
  return crc32(wear.data(), wear.size(), scheme_crc);
}

bool ServiceShard::verify_accepted_history() const {
  if (!params_.keep_history || config_.fault.retirement_enabled()) {
    return false;
  }
  const auto replay_device_ptr = make_latch_device(endurance_, config_);
  Device& replay_device = *replay_device_ptr;
  const auto replay = fresh_scheme();
  MemoryController replay_controller(replay_device, *replay, config_,
                                     /*enable_timing=*/false);
  for (const std::uint32_t la : history_) {
    replay_controller.submit(write_request(LogicalPageAddr(la)), 0);
  }
  return take_snapshot(*replay) == take_snapshot(*wl_) &&
         replay->invariants_hold();
}

void ServiceShard::publish_metrics(MetricsRegistry& m) const {
  controller_->stats().publish(m);
  m.counter("service.shard.accepted_writes").add(accepted_);
  m.counter("service.crashes").add(outcome_.crashes);
  m.counter("service.recoveries").add(outcome_.recoveries);
  m.counter("service.rollbacks").add(outcome_.rollbacks);
  m.counter("service.snapshot_fallbacks").add(outcome_.snapshot_fallbacks);
  m.counter("service.invariant_failures").add(outcome_.invariant_failures);
  m.counter("service.replayed_writes").add(outcome_.replayed_writes);
  for (std::size_t kind = 0; kind < kNumChaosKinds; ++kind) {
    m.counter("service.chaos." + to_string(static_cast<ChaosKind>(kind)))
        .add(outcome_.chaos_by_kind[kind]);
  }
  m.histogram("service.accepted_per_shard").add(accepted_);
  m.histogram("service.crashes_per_shard").add(outcome_.crashes);
  // Hybrid backend only — absent on PCM/NOR so the default service
  // output stays bit-identical to the pre-gauge tree.
  const double hit_rate = cache_hit_rate();
  if (hit_rate >= 0) {
    m.gauge("service.shard.cache_hit_rate").set(hit_rate);
  }
}

}  // namespace twl
