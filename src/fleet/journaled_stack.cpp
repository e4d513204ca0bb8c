#include "fleet/journaled_stack.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/checksum.h"
#include "device/factory.h"
#include "obs/metrics.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "sim/crash_sim.h"
#include "wl/factory.h"
#include "wl/wear_leveler.h"

namespace twl {

namespace {

/// DeviceOutcome's scalar tallies in wire order, named as published.
constexpr std::pair<const char*, std::uint64_t DeviceOutcome::*>
    kOutcomeTallies[] = {
        {"crashes", &DeviceOutcome::crashes},
        {"recoveries", &DeviceOutcome::recoveries},
        {"rollbacks", &DeviceOutcome::rollbacks},
        {"snapshot_fallbacks", &DeviceOutcome::snapshot_fallbacks},
        {"invariant_failures", &DeviceOutcome::invariant_failures},
        {"replayed_writes", &DeviceOutcome::replayed_writes},
};

}  // namespace

void DeviceOutcome::add(const DeviceOutcome& other) {
  for (const auto& t : kOutcomeTallies) this->*t.second += other.*t.second;
  for (std::size_t kind = 0; kind < kNumChaosKinds; ++kind) {
    chaos_by_kind[kind] += other.chaos_by_kind[kind];
  }
}

void DeviceOutcome::publish(MetricsRegistry& m,
                            const std::string& prefix) const {
  for (const auto& t : kOutcomeTallies) {
    m.counter(prefix + t.first).add(this->*t.second);
  }
  for (std::size_t kind = 0; kind < kNumChaosKinds; ++kind) {
    m.counter(prefix + "chaos." + to_string(static_cast<ChaosKind>(kind)))
        .add(chaos_by_kind[kind]);
  }
}

void DeviceOutcome::save_state(SnapshotWriter& w) const {
  for (const auto& t : kOutcomeTallies) w.put_u64(this->*t.second);
  for (std::uint64_t c : chaos_by_kind) w.put_u64(c);
}

void DeviceOutcome::load_state(SnapshotReader& r) {
  for (const auto& t : kOutcomeTallies) this->*t.second = r.get_u64();
  for (std::uint64_t& c : chaos_by_kind) c = r.get_u64();
}

void StackState::save_state(SnapshotWriter& w) const {
  w.put_u8_vec(scheme);
  w.put_u8_vec(device_wear);
  w.put_u8_vec(controller);
  w.put_u8_vec(journal);
  w.put_u64(journal_total_bytes);
  w.put_u64(journal_total_records);
  w.put_u64(journal_truncations);
  w.put_u8_vec(artifacts.snapshot_cur);
  w.put_u8_vec(artifacts.snapshot_prev);
  w.put_u8_vec(artifacts.retained_journal);
  w.put_u64(artifacts.base_cur);
  w.put_u64(artifacts.base_prev);
  w.put_u8_vec(artifacts.wear_cur);
  w.put_u8_vec(artifacts.wear_prev);
  w.put_u64(chaos_cursor);
  w.put_u8_vec(chaos_rng);
  outcome.save_state(w);
}

void StackState::load_state(SnapshotReader& r) {
  scheme = r.get_u8_vec();
  device_wear = r.get_u8_vec();
  controller = r.get_u8_vec();
  journal = r.get_u8_vec();
  journal_total_bytes = r.get_u64();
  journal_total_records = r.get_u64();
  journal_truncations = r.get_u64();
  artifacts.snapshot_cur = r.get_u8_vec();
  artifacts.snapshot_prev = r.get_u8_vec();
  artifacts.retained_journal = r.get_u8_vec();
  artifacts.base_cur = r.get_u64();
  artifacts.base_prev = r.get_u64();
  artifacts.wear_cur = r.get_u8_vec();
  artifacts.wear_prev = r.get_u8_vec();
  chaos_cursor = r.get_u64();
  chaos_rng = r.get_u8_vec();
  outcome.load_state(r);
}

std::uint32_t state_digest(const std::vector<std::uint8_t>& scheme,
                           const std::vector<std::uint8_t>& wear) {
  const std::size_t body = scheme.size() >= 4 ? scheme.size() - 4
                                              : scheme.size();
  return crc32(wear.data(), wear.size(), crc32(scheme.data(), body));
}

JournaledStack::JournaledStack(const Config& config, std::string scheme_spec,
                               std::uint64_t endurance_seed,
                               std::vector<ChaosEvent> schedule,
                               std::uint64_t chaos_seed)
    : config_(config),
      scheme_spec_(std::move(scheme_spec)),
      endurance_(config_.geometry.pages(), config_.endurance,
                 endurance_seed),
      device_(fresh_device()),
      wl_(fresh_scheme()),
      controller_(std::make_unique<MemoryController>(
          *device_, *wl_, config_, /*enable_timing=*/false)),
      schedule_(std::move(schedule)),
      chaos_rng_(chaos_seed) {
  controller_->attach_journal(&journal_);
  rebase(0);
}

std::unique_ptr<WearLeveler> JournaledStack::fresh_scheme() const {
  return make_wear_leveler_spec(scheme_spec_, endurance_, config_);
}

std::unique_ptr<Device> JournaledStack::fresh_device() const {
  return make_latch_device(endurance_, config_);
}

std::uint32_t JournaledStack::state_digest() const {
  return twl::state_digest(take_snapshot(*wl_), state_blob(*device_));
}

StackState JournaledStack::freeze() const {
  StackState s;
  s.scheme = take_snapshot(*wl_);
  s.device_wear = state_blob(*device_);
  s.controller = state_blob(controller_->stats());
  s.journal = journal_.bytes();
  s.journal_total_bytes = journal_.total_bytes_appended();
  s.journal_total_records = journal_.total_records_appended();
  s.journal_truncations = journal_.truncations();
  s.artifacts = artifacts_;
  s.chaos_cursor = chaos_cursor_;
  s.chaos_rng = state_blob(chaos_rng_);
  s.outcome = outcome_;
  return s;
}

void JournaledStack::thaw(const StackState& cold) {
  restore_snapshot(*wl_, cold.scheme);
  load_state_blob(*device_, cold.device_wear);
  ControllerStats stats;
  load_state_blob(stats, cold.controller);
  controller_->restore_stats(stats);
  journal_.restore(cold.journal, cold.journal_total_bytes,
                   cold.journal_total_records, cold.journal_truncations);
  artifacts_ = cold.artifacts;
  chaos_cursor_ = cold.chaos_cursor;
  load_state_blob(chaos_rng_, cold.chaos_rng);
  outcome_ = cold.outcome;
}

void JournaledStack::rebase(std::uint64_t base) {
  RecoveryArtifacts& a = artifacts_;
  a.snapshot_cur = take_snapshot(*wl_);
  a.snapshot_prev = a.snapshot_cur;
  a.retained_journal.clear();
  a.base_cur = base;
  a.base_prev = base;
  a.wear_cur = state_blob(*device_);
  a.wear_prev = a.wear_cur;
}

void JournaledStack::rotate(std::uint64_t base) {
  RecoveryArtifacts& a = artifacts_;
  a.snapshot_prev = std::move(a.snapshot_cur);
  a.base_prev = a.base_cur;
  a.wear_prev = std::move(a.wear_cur);
  a.retained_journal = journal_.bytes();
  journal_.truncate();
  a.snapshot_cur = take_snapshot(*wl_);
  a.base_cur = base;
  a.wear_cur = state_blob(*device_);
}

CrashRecovery JournaledStack::crash(const ChaosEvent& ev, LogicalPageAddr la,
                                    std::uint64_t k,
                                    const ReferenceAddresses& addresses) {
  ++outcome_.crashes;
  ++outcome_.chaos_by_kind[static_cast<std::size_t>(ev.kind)];
  RecoveryArtifacts& a = artifacts_;

  // Run the interrupted write to completion to learn what the journal
  // *would* have held; the crash is then modeled by what survives of it.
  const std::size_t journal_before = journal_.bytes().size();
  const std::uint64_t phys_before = controller_->stats().physical_writes();
  controller_->submit({Op::kWrite, la}, 0);
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
      flip_random_bit(a.snapshot_cur, chaos_rng_);
      cut_mid_write();
      break;
    case ChaosKind::kSnapshotTruncate:
      truncate_random(a.snapshot_cur, chaos_rng_);
      cut_mid_write();
      break;
    case ChaosKind::kSnapshotExtend:
      extend_garbage(a.snapshot_cur, chaos_rng_);
      cut_mid_write();
      break;
    case ChaosKind::kCrashMidCheckpoint:
      break;  // The journal survives whole; see the attempts below.
  }

  // Recovery attempts, in the order a controller would try them: the
  // partially written new snapshot a mid-checkpoint crash leaves (the
  // journal not yet truncated), then the current snapshot plus what
  // survived of the live journal, then — when the current snapshot is
  // damaged — the previous snapshot plus the retained journal span.
  struct Attempt {
    std::vector<std::uint8_t> snapshot;
    std::uint64_t base;
    const std::vector<std::uint8_t>* wear;
    std::vector<std::uint8_t> journal;
  };
  std::vector<Attempt> attempts;
  std::vector<std::uint8_t> wear_now;
  if (ev.kind == ChaosKind::kCrashMidCheckpoint) {
    std::vector<std::uint8_t> partial = take_snapshot(*wl_);
    partial.resize(1 + chaos_rng_.next_below(partial.size() - 1));
    wear_now = state_blob(*device_);
    attempts.push_back(Attempt{std::move(partial), k, &wear_now, {}});
  }
  attempts.push_back(
      Attempt{a.snapshot_cur, a.base_cur, &a.wear_cur, surviving});
  std::vector<std::uint8_t> fallback_journal = a.retained_journal;
  fallback_journal.insert(fallback_journal.end(), surviving.begin(),
                          surviving.end());
  attempts.push_back(Attempt{a.snapshot_prev, a.base_prev, &a.wear_prev,
                             std::move(fallback_journal)});

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
    throw std::runtime_error("no recoverable snapshot at write " +
                             std::to_string(k));
  }
  ++outcome_.recoveries;
  outcome_.replayed_writes += recovery.replayed_writes;

  const std::uint64_t committed = used->base + recovery.replayed_writes;
  const bool commit_survived = committed == k;
  if (!commit_survived) ++outcome_.rollbacks;

  const std::vector<LogicalPageAddr> reference_las =
      addresses(used->base, committed);
  // Invariant 5 writes to a snapshot clone: the stack adopts `recovered`.
  const auto probe = fresh_scheme();
  restore_snapshot(*probe, take_snapshot(*recovered));
  const RecoveryVerdicts verdicts = verify_recovery(
      RecoveredCrash{.recovered = *recovered,
                     .continued = *probe,
                     .device = *device_,
                     .crash_write = k,
                     .crash_la = la,
                     .in_flight_writes = in_flight,
                     .committed_writes = committed,
                     .rolled_back_la = recovery.rolled_back_la},
      RecoveryReference{.scheme_spec = scheme_spec_,
                        .endurance = endurance_,
                        .config = config_,
                        .snapshot = &used->snapshot,
                        .wear = used->wear,
                        .base = used->base,
                        .addresses = reference_las});
  if (!verdicts.all_hold()) ++outcome_.invariant_failures;

  // Adopt the recovered scheme: rebuild the controller around it
  // (counters continue, so the published totals include the aborted
  // attempt's real device writes), take a fresh post-recovery snapshot
  // pair, and — when the interrupted write rolled back — re-submit it,
  // exactly as the host re-issues a request that never completed.
  wl_ = std::move(recovered);
  controller_ = std::make_unique<MemoryController>(
      *device_, *wl_, config_, /*enable_timing=*/false);
  controller_->restore_stats(stats_at_crash);
  journal_.truncate();
  controller_->attach_journal(&journal_);
  rebase(committed);
  if (!commit_survived) {
    controller_->submit({Op::kWrite, la}, 0);
  }
  return CrashRecovery{committed, recovery.replayed_writes};
}

}  // namespace twl
