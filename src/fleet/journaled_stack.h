// One journaled controller stack and its crash-recovery protocol.
//
// A JournaledStack is what a fleet device (fleet/fleet.h) and a service
// shard (service/shard.h) both run: a Device over its own
// process-variation draw, a wear-leveling scheme, a MemoryController with
// an attached MetadataJournal, the persisted recovery artifacts (current
// and previous snapshot, the journal span between them, the device wear
// at each), a seeded chaos schedule with its cursor and RNG, and the
// lifetime chaos/recovery tallies.
//
// crash() is the whole protocol for one chaos event. It runs the
// interrupted write, damages what the event's kind damages (fleet/chaos.h),
// tries the recovery attempt chain — current snapshot plus surviving
// journal, then previous snapshot plus retained span plus surviving
// journal — checks the five recovery invariants with verify_recovery
// (sim/crash_sim.h), and adopts the recovered scheme. The caller supplies
// only the addresses the reference replays, because only it knows where
// its writes came from: a fleet device re-draws its workload stream, a
// shard reads its accepted log.
//
// freeze() and thaw() move the whole stack to and from a StackState, so a
// fleet checkpoint carries a stack without naming its fields.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"
#include "device/device.h"
#include "fleet/chaos.h"
#include "pcm/endurance.h"
#include "recovery/journal.h"
#include "sim/memory_controller.h"

namespace twl {

class MetricsRegistry;
class SnapshotReader;
class SnapshotWriter;

/// Lifetime chaos/recovery tallies of one stack.
struct DeviceOutcome {
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t rollbacks = 0;  ///< In-flight writes rolled back + redone.
  /// Recovery attempts that rejected a damaged snapshot and fell back.
  std::uint64_t snapshot_fallbacks = 0;
  std::uint64_t invariant_failures = 0;  ///< Must stay 0.
  std::uint64_t replayed_writes = 0;     ///< Journal replays, summed.
  std::array<std::uint64_t, kNumChaosKinds> chaos_by_kind{};

  /// Field-wise sum.
  void add(const DeviceOutcome& other);
  /// Counters "<prefix>crashes", ..., "<prefix>chaos.<kind>".
  void publish(MetricsRegistry& m, const std::string& prefix) const;
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

  friend bool operator==(const DeviceOutcome&,
                         const DeviceOutcome&) = default;
};

/// The persisted recovery artifacts: current and previous snapshot, the
/// journal span between them, and the device wear at each base (the
/// baseline the invariant check winds its reference back to).
struct RecoveryArtifacts {
  std::vector<std::uint8_t> snapshot_cur;
  std::vector<std::uint8_t> snapshot_prev;
  std::vector<std::uint8_t> retained_journal;
  std::uint64_t base_cur = 0;   ///< Writes snapshot_cur covers.
  std::uint64_t base_prev = 0;  ///< Writes snapshot_prev covers.
  std::vector<std::uint8_t> wear_cur;
  std::vector<std::uint8_t> wear_prev;

  friend bool operator==(const RecoveryArtifacts&,
                         const RecoveryArtifacts&) = default;
};

/// A JournaledStack frozen to bytes and counters: everything a fresh
/// stack of the same configuration needs to continue exactly where this
/// one stopped. save_state writes the fields in declaration order.
struct StackState {
  std::vector<std::uint8_t> scheme;       ///< take_snapshot envelope.
  std::vector<std::uint8_t> device_wear;  ///< Device::save_state.
  std::vector<std::uint8_t> controller;   ///< ControllerStats::save_state.
  std::vector<std::uint8_t> journal;      ///< Live journal bytes.
  std::uint64_t journal_total_bytes = 0;
  std::uint64_t journal_total_records = 0;
  std::uint64_t journal_truncations = 0;
  RecoveryArtifacts artifacts;
  std::uint64_t chaos_cursor = 0;         ///< Next schedule entry.
  std::vector<std::uint8_t> chaos_rng;    ///< XorShift64Star::save_state.
  DeviceOutcome outcome;

  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

  friend bool operator==(const StackState&, const StackState&) = default;
};

/// Writes the recovered scheme continues with after a crash, in the
/// invariant-5 determinism probe.
inline constexpr std::uint64_t kContinuationProbeWrites = 32;

/// The reference's addresses for one crash: the committed writes
/// base+1 .. committed, then kContinuationProbeWrites probe writes.
using ReferenceAddresses = std::function<std::vector<LogicalPageAddr>(
    std::uint64_t base, std::uint64_t committed)>;

/// What one crash() recovered to.
struct CrashRecovery {
  std::uint64_t committed = 0;        ///< k, or k-1 after a rollback.
  std::uint64_t replayed_writes = 0;  ///< Journal writes replayed.
};

/// CRC-32 over a scheme snapshot's body (excluding its own 4-byte CRC
/// tail) chained into the device wear blob: the byte-identity fingerprint
/// the determinism tests compare. By the CRC residue property, chaining
/// through the full snapshot would erase the scheme state from it.
[[nodiscard]] std::uint32_t state_digest(
    const std::vector<std::uint8_t>& scheme,
    const std::vector<std::uint8_t>& wear);

class JournaledStack {
 public:
  /// `config.seed` seeds the scheme; the device is the binary wear-out
  /// latch over an endurance map drawn from `endurance_seed`.
  JournaledStack(const Config& config, std::string scheme_spec,
                 std::uint64_t endurance_seed,
                 std::vector<ChaosEvent> schedule, std::uint64_t chaos_seed);

  /// The controller holds the address of journal_.
  JournaledStack(const JournaledStack&) = delete;
  JournaledStack& operator=(const JournaledStack&) = delete;

  /// Whether the next chaos event hits write k (1-based) or earlier.
  [[nodiscard]] bool event_due(std::uint64_t k) const {
    return chaos_cursor_ < schedule_.size() &&
           schedule_[chaos_cursor_].at_write <= k;
  }
  /// The due event for write k, consumed; nullptr when none is due.
  [[nodiscard]] const ChaosEvent* take_event(std::uint64_t k) {
    return event_due(k) ? &schedule_[chaos_cursor_++] : nullptr;
  }

  /// Checkpoint at a write boundary: the current snapshot becomes the
  /// previous one, the live journal the retained span, and a fresh
  /// snapshot covering `base` writes the current one.
  void rotate(std::uint64_t base);

  /// Chaos event `ev` hits write k to `la`: runs the write, damages the
  /// artifacts, recovers through the attempt chain, counts an invariant
  /// failure unless verify_recovery passes against `addresses`, adopts
  /// the recovered scheme (controller counters continue, fresh snapshot
  /// pair at the recovered base) and re-submits the write if it rolled
  /// back. Afterwards the stack has committed exactly k writes.
  CrashRecovery crash(const ChaosEvent& ev, LogicalPageAddr la,
                      std::uint64_t k, const ReferenceAddresses& addresses);

  [[nodiscard]] std::uint32_t state_digest() const;

  /// The stack as a StackState; thaw(freeze()) on a fresh stack of the
  /// same configuration continues it exactly.
  [[nodiscard]] StackState freeze() const;
  /// Continues `cold` on this stack, which must be freshly constructed.
  void thaw(const StackState& cold);

  /// A fresh scheme and device of this stack's configuration.
  [[nodiscard]] std::unique_ptr<WearLeveler> fresh_scheme() const;
  [[nodiscard]] std::unique_ptr<Device> fresh_device() const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const WearLeveler& scheme() const { return *wl_; }
  /// Writable: the owner submits the writes that hit no chaos event.
  [[nodiscard]] MemoryController& controller() { return *controller_; }
  [[nodiscard]] const MemoryController& controller() const {
    return *controller_;
  }
  [[nodiscard]] const MetadataJournal& journal() const { return journal_; }
  [[nodiscard]] const RecoveryArtifacts& artifacts() const {
    return artifacts_;
  }
  /// Writable: an owner's own recovery checks (a shard's tenant
  /// directory) count their failures here too.
  [[nodiscard]] DeviceOutcome& outcome() { return outcome_; }
  [[nodiscard]] const DeviceOutcome& outcome() const { return outcome_; }

 private:
  /// Fresh snapshot pair at `base`, empty retained span.
  void rebase(std::uint64_t base);

  Config config_;
  std::string scheme_spec_;
  EnduranceMap endurance_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<WearLeveler> wl_;
  std::unique_ptr<MemoryController> controller_;
  MetadataJournal journal_;
  RecoveryArtifacts artifacts_;
  std::vector<ChaosEvent> schedule_;
  std::uint64_t chaos_cursor_ = 0;
  XorShift64Star chaos_rng_;
  DeviceOutcome outcome_;
};

}  // namespace twl
