#include "service/shard.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/rng.h"
#include "obs/metrics.h"
#include "recovery/snapshot.h"
#include "service/tenant.h"
#include "wl/wear_leveler.h"

namespace twl {

namespace {

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

/// The shard's stack: the service config with this shard's scheme seed.
JournaledStack make_stack(const Config& service_config,
                          const ShardParams& params, const ShardSeeds& seeds) {
  Config c = service_config;
  c.seed = seeds.scheme;
  return JournaledStack(c, params.scheme_spec, seeds.endurance,
                        make_chaos_schedule(params.chaos,
                                            params.horizon_writes,
                                            seeds.schedule),
                        seeds.chaos_rng);
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
  }
  return "unknown";
}

ServiceShard::ServiceShard(const Config& config, const ShardParams& params,
                           std::uint32_t index)
    : index_(index),
      params_(params),
      stack_(make_stack(config, params_, shard_seeds(config.seed, index))),
      probe_seed_(shard_seeds(config.seed, index).probe) {
  if (params_.chaos.enabled() && config.fault.enabled()) {
    throw std::invalid_argument(
        "service shards require the binary wear-out model under chaos "
        "(no fault model, no retirement): crash recovery replays demand "
        "writes only");
  }
}

void ServiceShard::rotate_if_due() {
  if (accepted_ - stack_.artifacts().base_cur <
      params_.snapshot_interval_writes) {
    return;
  }
  stack_.rotate(accepted_);
  // The reference replay never reaches further back than base_prev.
  trim_log(stack_.artifacts().base_prev);
}

void ServiceShard::trim_log(std::uint64_t base) {
  assert(base >= log_base_);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(base - log_base_));
  log_base_ = base;
}

void ServiceShard::feed_availability() {
  const AvailabilitySignal sig = stack_.controller().availability_signal();
  switch (sig.state) {
    case ControllerAvailability::kAvailable:
      break;
    case ControllerAvailability::kDegraded:
      // Retirement feed: spares are being consumed. Degraded is sticky —
      // the underlying capacity loss does not heal.
      retire_degraded_ = true;
      health_ = HealthState::kDegraded;
      break;
    case ControllerAvailability::kFailed:
      dead_ = true;
      health_ = HealthState::kQuarantined;
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
        health_ = HealthState::kDegraded;
      }
    } else {
      cache_degraded_ = false;  // Heals; decay_degraded restores healthy.
    }
  }
}

void ServiceShard::decay_degraded() {
  if (!retire_degraded_ && !cache_degraded_ && !dead() &&
      health_ == HealthState::kDegraded) {
    if (degraded_remaining_ > 0) --degraded_remaining_;
    if (degraded_remaining_ == 0) {
      health_ = HealthState::kHealthy;
    }
  }
}

ShardExecOutcome ServiceShard::execute(LogicalPageAddr local_la) {
  assert(!dead() && "execute() on a dead shard");
  const std::uint64_t k = accepted_ + 1;
  log_.push_back(local_la.value());
  if (params_.keep_history) history_.push_back(local_la.value());

  ShardExecOutcome out;
  if (const ChaosEvent* ev = stack_.take_event(k)) {
    out = crash(*ev, local_la, k);
  } else {
    stack_.controller().submit({Op::kWrite, local_la}, 0);
    feed_availability();
  }
  accepted_ = k;

  decay_degraded();
  rotate_if_due();
  return out;
}

ShardBatchOutcome ServiceShard::execute_batch(const LogicalPageAddr* las,
                                              std::size_t count,
                                              Cycles* penalty_cycles) {
  assert(!dead() && "execute_batch() on a dead shard");
  ShardBatchOutcome out;
  std::size_t i = 0;
  while (i < count && !dead()) {
    if (stack_.event_due(accepted_ + 1)) {
      // A chaos event targets this write: take the single-write crash
      // path so damage windows and recovery semantics are unchanged.
      const Cycles penalty = execute(las[i]).penalty_cycles;
      if (penalty_cycles != nullptr) penalty_cycles[i] = penalty;
      ++i;
      ++out.executed;
      continue;
    }
    // Chaos-free run: journaled as one BatchBegin/BatchCommit group.
    // Capped at the next chaos point AND the next snapshot-rotation
    // boundary — a snapshot must cover exactly base_cur writes, so
    // rotation may only happen at a write boundary.
    const std::uint64_t until_rotation = stack_.artifacts().base_cur +
                                         params_.snapshot_interval_writes -
                                         accepted_;
    std::size_t run = 0;
    while (i + run < count && run < until_rotation &&
           !stack_.event_due(accepted_ + 1 + run)) {
      ++run;
    }
    for (std::size_t j = 0; j < run; ++j) {
      log_.push_back(las[i + j].value());
      if (params_.keep_history) history_.push_back(las[i + j].value());
    }
    stack_.controller().submit_write_batch(las + i, run, 0);
    feed_availability();
    if (penalty_cycles != nullptr) {
      std::fill(penalty_cycles + i, penalty_cycles + i + run, Cycles{0});
    }
    for (std::size_t j = 0; j < run; ++j) {
      ++accepted_;
      decay_degraded();
    }
    rotate_if_due();
    i += run;
    out.executed += run;
  }
  return out;
}

ShardExecOutcome ServiceShard::crash(const ChaosEvent& ev, LogicalPageAddr la,
                                     std::uint64_t k) {
  health_ = HealthState::kQuarantined;
  // The reference replays the addresses live clients actually submitted,
  // from the accepted log, then a seeded probe: the shard has no workload
  // stream of its own to continue.
  const CrashRecovery rec = stack_.crash(
      ev, la, k, [&](std::uint64_t base, std::uint64_t committed) {
        assert(base >= log_base_ && committed - log_base_ <= log_.size());
        const auto first =
            log_.begin() + static_cast<std::ptrdiff_t>(base - log_base_);
        std::vector<LogicalPageAddr> las(
            first, first + static_cast<std::ptrdiff_t>(committed - base));
        SplitMix64 probe(probe_seed_ ^ (0x9E37'79B9'7F4A'7C15ULL * k));
        const std::uint64_t pages = logical_pages();
        for (std::uint64_t i = 0; i < kContinuationProbeWrites; ++i) {
          las.emplace_back(static_cast<std::uint32_t>(probe.next() % pages));
        }
        return las;
      });
  // The re-based snapshots cover everything up to the recovered base.
  trim_log(rec.committed);

  health_ = HealthState::kDegraded;
  degraded_remaining_ = params_.degraded_window_writes;
  // Tenant mode: the directory must come back intact from the same
  // recovery pass; damage counts as an invariant failure.
  verify_directory_blob();

  ShardExecOutcome out;
  out.crashed = true;
  out.penalty_cycles = params_.quarantine_cycles +
                       params_.recovery_base_cycles +
                       params_.recovery_per_replay_cycles * rec.replayed_writes;
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
         restored.local_pages() == logical_pages();
  } catch (const SnapshotError&) {
    ok = false;
  }
  if (!ok) {
    directory_verified_ = false;
    ++stack_.outcome().invariant_failures;
  }
}

std::uint32_t ServiceShard::state_digest() const {
  return stack_.state_digest();
}

bool ServiceShard::verify_accepted_history() const {
  if (!params_.keep_history || stack_.config().fault.retirement_enabled()) {
    return false;
  }
  const auto replay_device = stack_.fresh_device();
  const auto replay = stack_.fresh_scheme();
  MemoryController replay_controller(*replay_device, *replay, stack_.config(),
                                     /*enable_timing=*/false);
  for (const std::uint32_t la : history_) {
    replay_controller.submit({Op::kWrite, LogicalPageAddr(la)}, 0);
  }
  return take_snapshot(*replay) == take_snapshot(stack_.scheme()) &&
         replay->invariants_hold();
}

void ServiceShard::publish_metrics(MetricsRegistry& m) const {
  stack_.controller().stats().publish(m);
  m.counter("service.shard.accepted_writes").add(accepted_);
  outcome().publish(m, "service.");
  m.histogram("service.accepted_per_shard").add(accepted_);
  m.histogram("service.crashes_per_shard").add(outcome().crashes);
  // Hybrid backend only — absent on PCM/NOR so the default service
  // output stays bit-identical to the pre-gauge tree.
  const double hit_rate = cache_hit_rate();
  if (hit_rate >= 0) {
    m.gauge("service.shard.cache_hit_rate").set(hit_rate);
  }
}

}  // namespace twl
