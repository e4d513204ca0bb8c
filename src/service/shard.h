// One service shard: a journaled stack, an accepted log and a health
// state machine.
//
// A shard is the unit of failure and recovery in the service front-end
// (service/service.h). Its JournaledStack (fleet/journaled_stack.h) holds
// the device over its own process-variation draw, the wear-leveling
// scheme, the journaled MemoryController, the persisted recovery
// artifacts and a seeded chaos schedule that crashes the shard while
// requests are in flight; a chaos event runs the stack's crash protocol.
//
// Unlike a fleet device, a shard has no workload stream of its own: the
// addresses it commits arrive from live clients, so the reference
// re-execution behind the five recovery invariants replays an *accepted
// log* — the shard records every accepted local address since the
// previous snapshot base and hands the stack exactly the suffix the used
// snapshot needs, followed by a seeded probe. The log is trimmed at every
// snapshot rotation, so its length is bounded by two snapshot intervals.
//
// Health state machine (healthy → degraded → quarantined):
//  * a chaos crash holds the shard kQuarantined while the stack recovers,
//    then kDegraded for the next degraded_window_writes accepted writes
//    before it returns to kHealthy;
//  * the retirement feed (MemoryController::availability()) makes a
//    shard with retired pages sticky-kDegraded, and a shard whose device
//    failed with the spare pool exhausted permanently kQuarantined
//    (dead()) — the front-end sheds its traffic and the rest of the
//    service degrades gracefully instead of failing.
//
// Thread model: a shard has one owner at a time (the engine cell that
// serves its window), so no member is shared between threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "fleet/chaos.h"
#include "fleet/journaled_stack.h"
#include "sim/memory_controller.h"

namespace twl {

class MetricsRegistry;

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded,
  kQuarantined,
};

[[nodiscard]] std::string to_string(HealthState s);

/// Everything a shard needs beyond the base Config.
struct ShardParams {
  std::string scheme_spec = "TWL";
  ChaosProfile chaos{};
  /// Upper bound on accepted writes (sizes the chaos schedule).
  std::uint64_t horizon_writes = 0;
  std::uint64_t snapshot_interval_writes = 4096;
  /// Accepted writes a shard stays kDegraded after a recovery.
  std::uint64_t degraded_window_writes = 128;
  Cycles quarantine_cycles = 2000;
  Cycles recovery_base_cycles = 8000;
  Cycles recovery_per_replay_cycles = 50;
  /// Record the full accepted-address history so
  /// verify_accepted_history() can prove zero accepted-write loss.
  bool keep_history = false;
  /// Tenant mode: serialized TenantDirectory (TenantDirectory::
  /// serialize()). The shard re-parses and compares it after every crash
  /// recovery; a mismatch counts as an invariant failure. Empty =
  /// single-tenant, no check.
  std::vector<std::uint8_t> directory_blob;
  /// Hybrid backend only: hold the shard kDegraded while the DRAM cache
  /// hit rate sits below this floor (0 = gate disabled). The signal is
  /// only consulted once degraded_window_writes writes have warmed the
  /// cache.
  double min_cache_hit_rate = 0.0;
};

/// Result of one accepted write.
struct ShardExecOutcome {
  bool crashed = false;  ///< A chaos event hit this write.
  /// Virtual-time cost of the crash beyond the nominal service time:
  /// quarantine + recovery_base + per_replay * journal writes replayed.
  Cycles penalty_cycles = 0;
};

/// Result of one batched drain (execute_batch).
struct ShardBatchOutcome {
  /// Writes actually committed; < count only if the shard died mid-batch
  /// (the caller re-disposes the remainder).
  std::size_t executed = 0;
};

class ServiceShard {
 public:
  /// `config.seed` is the *service* seed; the shard derives its own
  /// endurance / scheme / chaos streams from (seed, index).
  ServiceShard(const Config& config, const ShardParams& params,
               std::uint32_t index);

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Commits one accepted write. Runs the chaos schedule: if an event is
  /// due, the write is interrupted, the shard crashes, recovers through
  /// the snapshot-fallback attempt chain, re-verifies the five recovery
  /// invariants and re-admits the write — the caller's request is never
  /// lost. Must not be called on a dead() shard.
  ShardExecOutcome execute(LogicalPageAddr local_la);

  /// Commits a tenant drain as one group: chaos-free stretches go
  /// through MemoryController::submit_write_batch so journaling
  /// amortizes (BatchBegin/BatchCommit records); a write the chaos
  /// schedule targets is executed via the single-write crash path so
  /// recovery semantics are unchanged. Stops early if the shard dies
  /// mid-batch. The physical write stream and accepted log are
  /// write-for-write identical to count execute() calls
  /// (ServiceShard.ExecuteBatchMatchesExecuteUnderChaos). When
  /// `penalty_cycles` is given, entry i of the first `executed` receives
  /// write i's crash penalty, 0 for a clean write, as execute() would
  /// report it: the caller models per-request completion times without
  /// an allocation per drain.
  ShardBatchOutcome execute_batch(const LogicalPageAddr* las,
                                  std::size_t count,
                                  Cycles* penalty_cycles = nullptr);

  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] std::uint64_t logical_pages() const {
    return stack_.scheme().logical_pages();
  }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] const DeviceOutcome& outcome() const {
    return stack_.outcome();
  }
  [[nodiscard]] const MemoryController& controller() const {
    return stack_.controller();
  }
  [[nodiscard]] std::uint64_t journal_lifetime_bytes() const {
    return stack_.journal().total_bytes_appended();
  }

  [[nodiscard]] HealthState health() const { return health_; }
  /// Permanently failed: a page died with the spare pool exhausted. The
  /// shard stays kQuarantined forever and accepts no further writes.
  [[nodiscard]] bool dead() const { return dead_; }

  /// CRC-32 over the final scheme snapshot body (excluding its own CRC
  /// tail) chained into the device wear state — the byte-identity
  /// fingerprint the determinism tests compare.
  [[nodiscard]] std::uint32_t state_digest() const;

  /// Tenant mode: false once a post-recovery re-parse of the directory
  /// blob failed or disagreed with the configured carve. True (trivial)
  /// when no directory_blob was configured.
  [[nodiscard]] bool directory_verified() const {
    return directory_verified_;
  }

  /// Hybrid backend only: current DRAM cache hit rate; negative when the
  /// backing device has no cache.
  [[nodiscard]] double cache_hit_rate() const {
    return stack_.controller().availability_signal().cache_hit_rate;
  }

  /// Zero accepted-write loss, end to end: re-executes the entire
  /// accepted history on a fresh stack and compares scheme metadata
  /// byte-for-byte. Requires keep_history and no retirement (the replay
  /// model). Returns false if any accepted write was lost or
  /// double-applied across all crashes and recoveries.
  [[nodiscard]] bool verify_accepted_history() const;

  /// Controller counters plus shard chaos/recovery tallies under
  /// "service.shard." names. Commutative merges only.
  void publish_metrics(MetricsRegistry& m) const;

 private:
  /// The stack's crash protocol plus the shard's part: quarantine during
  /// it, the reference addresses, the log trim, the degraded window and
  /// the directory re-check.
  ShardExecOutcome crash(const ChaosEvent& ev, LogicalPageAddr la,
                         std::uint64_t k);
  /// Stack rotation at accepted_ once the snapshot interval is full.
  void rotate_if_due();
  /// Drops the accepted log up to write `base`.
  void trim_log(std::uint64_t base);
  void feed_availability();
  /// Counts one accepted write against the post-recovery degraded
  /// window; shared by execute() and execute_batch().
  void decay_degraded();
  /// Re-parses the configured directory blob (after a crash recovery)
  /// and clears directory_verified_ on damage or shape mismatch.
  void verify_directory_blob();

  std::uint32_t index_;
  ShardParams params_;
  JournaledStack stack_;
  std::uint64_t probe_seed_;  ///< Invariant-5 continuation probe stream.

  std::uint64_t accepted_ = 0;
  /// Accepted local addresses for writes log_base_+1 .. accepted_
  /// (log_base_ == base_prev): the recovery reference replay input.
  std::vector<std::uint32_t> log_;
  std::uint64_t log_base_ = 0;
  std::vector<std::uint32_t> history_;  ///< keep_history only.

  HealthState health_ = HealthState::kHealthy;
  bool dead_ = false;
  std::uint64_t degraded_remaining_ = 0;
  bool retire_degraded_ = false;  ///< Retirement feed: sticky kDegraded.
  bool cache_degraded_ = false;   ///< Hit-rate floor: sticky kDegraded.
  bool directory_verified_ = true;
};

}  // namespace twl
