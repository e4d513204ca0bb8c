// The crash protocol one chaos kind at a time. Fleet and service runs
// only assert aggregate counts over many mixed events; here each of the
// eight kinds hits a stack once, after a snapshot rotation, at several
// crash points, and the attempt chain's tallies are pinned per kind: one
// recovery, no invariant failure, a snapshot fallback exactly for the
// kinds that damage the current snapshot, and the rollbacks the kind
// forces. After the crash the stack must hold exactly the k committed
// writes, with its snapshot pair re-based on the recovered state.
#include "fleet/journaled_stack.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "recovery/snapshot.h"
#include "wl/wear_leveler.h"

namespace twl {
namespace {

constexpr std::uint64_t kBeforeRotation = 50;

Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 1e6;
  return Config::scaled(scale);
}

/// One `kind` event on a fresh TWL stack after `kBeforeRotation` writes
/// and a rotation, at four crash points. `rollbacks` is checked when the
/// kind decides it; the cut-mid-write kinds may land either way.
void expect_one_recovery(ChaosKind kind, std::uint64_t fallbacks,
                         std::optional<std::uint64_t> rollbacks) {
  for (const std::uint64_t after : {0u, 6u, 18u, 39u}) {
    SCOPED_TRACE(to_string(kind) + " after " + std::to_string(after) +
                 " writes past the rotation");
    JournaledStack stack(small_config(), "TWL", /*endurance_seed=*/7,
                         /*schedule=*/{}, /*chaos_seed=*/1000 + after);
    const std::uint64_t pages = stack.scheme().logical_pages();
    SplitMix64 mix(42);
    std::vector<LogicalPageAddr> written;
    const auto next = [&] {
      written.emplace_back(static_cast<std::uint32_t>(mix.next() % pages));
      return written.back();
    };
    for (std::uint64_t i = 0; i < kBeforeRotation; ++i) {
      stack.controller().submit({Op::kWrite, next()}, 0);
    }
    stack.rotate(kBeforeRotation);
    for (std::uint64_t i = 0; i < after; ++i) {
      stack.controller().submit({Op::kWrite, next()}, 0);
    }

    const std::uint64_t k = written.size() + 1;
    const LogicalPageAddr la = next();
    const CrashRecovery rec = stack.crash(
        ChaosEvent{k, kind}, la, k,
        [&](std::uint64_t base, std::uint64_t committed) {
          std::vector<LogicalPageAddr> las(
              written.begin() + static_cast<std::ptrdiff_t>(base),
              written.begin() + static_cast<std::ptrdiff_t>(committed));
          SplitMix64 probe(k);
          for (std::uint64_t i = 0; i < kContinuationProbeWrites; ++i) {
            las.emplace_back(static_cast<std::uint32_t>(probe.next() % pages));
          }
          return las;
        });

    const DeviceOutcome& o = stack.outcome();
    EXPECT_EQ(o.crashes, 1u);
    EXPECT_EQ(o.recoveries, 1u);
    EXPECT_EQ(o.invariant_failures, 0u);
    EXPECT_EQ(o.chaos_by_kind[static_cast<std::size_t>(kind)], 1u);
    EXPECT_EQ(o.snapshot_fallbacks, fallbacks);
    EXPECT_EQ(o.rollbacks, rec.committed == k ? 0u : 1u);
    EXPECT_TRUE(rec.committed == k || rec.committed + 1 == k);
    if (rollbacks.has_value()) {
      EXPECT_EQ(o.rollbacks, *rollbacks);
    }

    // Adopted: the snapshot pair is re-based on the recovered state...
    const RecoveryArtifacts& a = stack.artifacts();
    EXPECT_EQ(a.base_cur, rec.committed);
    EXPECT_EQ(a.base_prev, rec.committed);
    EXPECT_TRUE(a.retained_journal.empty());
    EXPECT_EQ(a.snapshot_prev, a.snapshot_cur);
    // ...and a rolled-back write was re-submitted: the scheme holds
    // exactly the k writes a crash-free run commits.
    const auto device = stack.fresh_device();
    const auto scheme = stack.fresh_scheme();
    MemoryController clean(*device, *scheme, stack.config(),
                           /*enable_timing=*/false);
    for (const LogicalPageAddr w : written) clean.submit({Op::kWrite, w}, 0);
    EXPECT_EQ(take_snapshot(stack.scheme()), take_snapshot(*scheme));
  }
}

TEST(JournaledStack, CrashMidWriteRecoversFromTheCurrentSnapshot) {
  expect_one_recovery(ChaosKind::kCrashMidWrite, 0, std::nullopt);
}

TEST(JournaledStack, CrashMidCheckpointFallsBackPastThePartialSnapshot) {
  expect_one_recovery(ChaosKind::kCrashMidCheckpoint, 1, 0);
}

TEST(JournaledStack, SnapshotBitFlipFallsBackToThePreviousSnapshot) {
  expect_one_recovery(ChaosKind::kSnapshotBitFlip, 1, std::nullopt);
}

TEST(JournaledStack, SnapshotTruncateFallsBackToThePreviousSnapshot) {
  expect_one_recovery(ChaosKind::kSnapshotTruncate, 1, std::nullopt);
}

TEST(JournaledStack, SnapshotExtendFallsBackToThePreviousSnapshot) {
  expect_one_recovery(ChaosKind::kSnapshotExtend, 1, std::nullopt);
}

TEST(JournaledStack, JournalTailBitFlipRollsTheWriteBack) {
  expect_one_recovery(ChaosKind::kJournalTailBitFlip, 0, 1);
}

TEST(JournaledStack, JournalTruncateRecoversFromTheCurrentSnapshot) {
  expect_one_recovery(ChaosKind::kJournalTruncate, 0, std::nullopt);
}

TEST(JournaledStack, JournalExtendKeepsTheCommittedWrite) {
  expect_one_recovery(ChaosKind::kJournalExtend, 0, 0);
}

}  // namespace
}  // namespace twl
