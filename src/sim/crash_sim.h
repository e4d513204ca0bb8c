// Crash-consistency simulation.
//
// Injects a power failure at a uniformly random point of a journaled run —
// including mid-swap (between a SwapIntent and its SwapCommit) and
// mid-journal-append (the cut lands inside a record, producing a torn
// tail) — then recovers a fresh scheme instance from the last snapshot
// plus the surviving journal prefix and checks the recovery invariants:
//
//  1. The recovered LA -> PA mapping is a bijection (invariants_hold()).
//  2. No committed demand write is lost or double-applied: the recovered
//     metadata is byte-identical to a reference run that executed exactly
//     the committed writes.
//  3. At most one write (the one in flight) rolls back, and only when its
//     WriteCommit record did not survive.
//  4. Wear-counter drift between the crashed device and the reference
//     device is bounded by the physical writes of the in-flight request.
//  5. Post-recovery determinism: continuing the recovered scheme yields
//     the same final state as continuing the reference.
//
// verify_recovery is the one checker of these five: the crash simulator
// calls it against a fresh-state reference, and every fleet device and
// service shard (fleet/journaled_stack.h) against a reference wound back
// to the snapshot its recovery used.
//
// Retirement/fault-tolerant configurations are out of scope here: the
// controller's retirement callbacks mutate scheme state outside the
// demand-write replay model (see DESIGN.md), so trials run on the binary
// wear-out latch and sized so no page wears out.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "pcm/endurance.h"

namespace twl {

class Device;
class EventTracer;
class JsonWriter;
class MetricsRegistry;
class WearLeveler;

/// The five invariant verdicts of one recovery.
struct RecoveryVerdicts {
  bool mapping_bijective = false;        ///< Invariant 1.
  bool state_matches_reference = false;  ///< Invariant 2 (byte-exact).
  bool rollback_consistent = false;      ///< Invariant 3.
  bool wear_drift_bounded = false;       ///< Invariant 4.
  bool continuation_matches = false;     ///< Invariant 5.

  [[nodiscard]] bool all_hold() const {
    return mapping_bijective && state_matches_reference &&
           rollback_consistent && wear_drift_bounded && continuation_matches;
  }
};

/// One crash and what recovery made of it.
struct RecoveredCrash {
  const WearLeveler& recovered;  ///< The recovered scheme (invariants 1-2).
  /// The scheme invariant 5 writes to, after invariants 1-4 are checked:
  /// `recovered` itself when the caller discards it afterwards, or a
  /// snapshot clone when the caller keeps running the recovered scheme.
  WearLeveler& continued;
  const Device& device;          ///< The crashed device's wear.
  std::uint64_t crash_write = 0;       ///< k, interrupted (1-based).
  LogicalPageAddr crash_la{};          ///< Write k's address.
  std::uint64_t in_flight_writes = 0;  ///< Physical writes of write k.
  std::uint64_t committed_writes = 0;  ///< Writes recovery landed on.
  std::optional<LogicalPageAddr> rolled_back_la;  ///< As recovery reported.
};

/// The crash-free reference verify_recovery re-executes: a fresh latch
/// device and scheme of the crashed stack's configuration, wound back to
/// `snapshot` and `wear` (fresh state when null), then driven through
/// `addresses`.
struct RecoveryReference {
  const std::string& scheme_spec;
  const EnduranceMap& endurance;
  const Config& config;
  const std::vector<std::uint8_t>* snapshot = nullptr;
  const std::vector<std::uint8_t>* wear = nullptr;
  std::uint64_t base = 0;  ///< Writes the starting state covers.
  /// Writes base+1 .. committed_writes, then the continuation writes
  /// invariant 5 runs on the continued scheme and on the reference alike
  /// (none past the committed ones: invariant 5 compares the two as they
  /// stand).
  std::span<const LogicalPageAddr> addresses;
};

/// Checks invariants 1-5 of one recovery against its reference. Total for
/// any claim: a committed count outside [base, base + addresses.size()]
/// replays only the addresses given, never past them.
[[nodiscard]] RecoveryVerdicts verify_recovery(
    const RecoveredCrash& crash, const RecoveryReference& reference);

struct CrashSimParams {
  std::string scheme_spec = "TWL";
  /// Demand writes in the full (uncrashed) run; the crash point is
  /// uniform in [1, total_writes].
  std::uint64_t total_writes = 1024;
  /// Snapshot + journal truncation every this many demand writes.
  std::uint64_t snapshot_interval = 128;
  /// Workload shape (drives the same synthetic mixture the lifetime
  /// experiments use; reads are skipped).
  double zipf_s = 1.0;
  double stream_frac = 0.1;
  /// Run both recovered and reference schemes to total_writes after
  /// recovery and compare final states (invariant 5). Costs a second
  /// partial run per trial. Off, the reference's addresses end at the
  /// crashed write, so invariant 5 continues at most that one write.
  bool verify_continuation = true;
};

struct CrashTrialResult {
  // --- crash geometry ---
  std::uint64_t crash_write = 0;    ///< Demand write interrupted (1-based).
  std::uint64_t committed_writes = 0;  ///< Demand writes recovered to.
  bool commit_survived = false;     ///< Write crash_write's commit made it.
  bool torn_tail = false;           ///< The cut landed inside a record.
  bool garbage_tail = false;        ///< Random bytes appended after the cut.
  std::uint64_t cut_bytes = 0;      ///< Journal bytes surviving the crash.
  std::uint64_t orphan_swap_intents = 0;  ///< Mid-swap crash evidence.
  std::uint64_t replayed_writes = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t journal_bytes_total = 0;  ///< Lifetime appended bytes.

  RecoveryVerdicts verdicts;

  /// One JSON object (crash geometry plus the five verdicts).
  void write_json(JsonWriter& w) const;
};

class CrashSimulator {
 public:
  /// The endurance map is drawn once and shared by every trial, like
  /// LifetimeSimulator. Const-usable from concurrent SimRunner cells.
  /// Throws std::invalid_argument on zero total_writes or
  /// snapshot_interval, or an enabled fault model (see above).
  CrashSimulator(const Config& config, const CrashSimParams& params);

  /// One crash/recovery experiment. `trial` seeds the crash point and the
  /// workload, so distinct trials crash at independent random points;
  /// the same trial index always reproduces the same experiment.
  /// `metrics` (optional) accumulates per-trial counters; `tracer`
  /// (optional) records typed events — including kCrash at the journal
  /// cut and kRecover after replay — in TWL_TRACING builds. Detached
  /// (the default) is bit-identical to the pre-observability simulator.
  [[nodiscard]] CrashTrialResult run_trial(
      std::uint64_t trial, MetricsRegistry* metrics = nullptr,
      EventTracer* tracer = nullptr) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const CrashSimParams& params() const { return params_; }

 private:
  Config config_;
  CrashSimParams params_;
  EnduranceMap endurance_;
};

}  // namespace twl
