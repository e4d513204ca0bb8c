// Negative oracle for the recovery verifier. Every other suite asserts
// that recoveries pass, which a verifier answering "ok" unconditionally
// would satisfy too. Here one hand-built crash — a TWL run whose last
// write lost the final byte of its WriteCommit — is first checked with
// its true claim (all five verdicts hold), then with deliberately wrong
// claims, each of which must flip the verdict of the invariant it breaks.
// Each claim continues its own snapshot clone of the recovered scheme, so
// the fixture's recovered scheme stays as recovery left it.
#include "sim/crash_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "device/factory.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "sim/memory_controller.h"
#include "wl/factory.h"
#include "wl/wear_leveler.h"

namespace twl {
namespace {

constexpr std::uint64_t kCrashWrite = 40;     // k
constexpr std::uint64_t kContinuation = 32;   // Invariant-5 probe writes.

/// A recovered scheme whose replay left a fault its snapshot does not
/// hold: it serializes exactly like `inner`, but every write after the
/// first lands one page off. Only a verifier that continues this object
/// itself, not a clone rebuilt from its snapshot, can see the fault.
class DriftsAfterOneWrite final : public WearLeveler {
 public:
  explicit DriftsAfterOneWrite(WearLeveler& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return inner_.logical_pages();
  }
  [[nodiscard]] PhysicalPageAddr map_read(
      LogicalPageAddr la) const override {
    return inner_.map_read(la);
  }
  void write(LogicalPageAddr la, WriteSink& sink) override {
    const std::uint32_t shift = writes_++ == 0 ? 0 : 1;
    inner_.write(LogicalPageAddr(static_cast<std::uint32_t>(
                     (la.value() + shift) % logical_pages())),
                 sink);
  }
  [[nodiscard]] std::uint32_t storage_bits_per_page() const override {
    return inner_.storage_bits_per_page();
  }
  [[nodiscard]] bool invariants_hold() const override {
    return inner_.invariants_hold();
  }
  void save_state(SnapshotWriter& w) const override { inner_.save_state(w); }
  void load_state(SnapshotReader& r) override { inner_.load_state(r); }

 private:
  WearLeveler& inner_;
  std::uint64_t writes_ = 0;
};

class VerifyRecovery : public ::testing::Test {
 protected:
  VerifyRecovery()
      : config_(make_config()),
        endurance_(config_.geometry.pages(), config_.endurance, config_.seed),
        device_(make_latch_device(endurance_, config_)),
        wl_(make_wear_leveler_spec(spec_, endurance_, config_)),
        recovered_(make_wear_leveler_spec(spec_, endurance_, config_)) {
    MemoryController controller(*device_, *wl_, config_,
                                /*enable_timing=*/false);
    MetadataJournal journal;
    controller.attach_journal(&journal);
    const std::vector<std::uint8_t> snapshot = take_snapshot(*wl_);

    SplitMix64 mix(17);
    for (std::uint64_t i = 0; i < kCrashWrite + kContinuation; ++i) {
      addresses_.emplace_back(
          static_cast<std::uint32_t>(mix.next() % wl_->logical_pages()));
    }
    std::size_t journal_before = 0;
    std::uint64_t phys_before = 0;
    for (std::uint64_t i = 0; i < kCrashWrite; ++i) {
      journal_before = journal.bytes().size();
      phys_before = controller.stats().physical_writes();
      controller.submit({Op::kWrite, addresses_[i]}, 0);
    }
    in_flight_ = controller.stats().physical_writes() - phys_before;

    // Drop the last byte of write k's records: its WriteBegin survives,
    // its WriteCommit is torn, so it must roll back.
    std::vector<std::uint8_t> surviving = journal.bytes();
    surviving.pop_back();
    EXPECT_GT(surviving.size(), journal_before);
    outcome_ = recover(*recovered_, snapshot, surviving);
  }

  static Config make_config() {
    SimScale scale;
    scale.pages = 64;
    scale.endurance_mean = 1e6;
    return Config::scaled(scale);
  }

  /// A fresh snapshot clone of the recovered scheme, owned by the fixture.
  [[nodiscard]] WearLeveler& clone_recovered() {
    clones_.push_back(make_wear_leveler_spec(spec_, endurance_, config_));
    restore_snapshot(*clones_.back(), take_snapshot(*recovered_));
    return *clones_.back();
  }

  /// The crash as it really happened.
  [[nodiscard]] RecoveredCrash true_claim() {
    return RecoveredCrash{.recovered = *recovered_,
                          .continued = clone_recovered(),
                          .device = *device_,
                          .crash_write = kCrashWrite,
                          .crash_la = addresses_[kCrashWrite - 1],
                          .in_flight_writes = in_flight_,
                          .committed_writes = outcome_.replayed_writes,
                          .rolled_back_la = outcome_.rolled_back_la};
  }

  [[nodiscard]] RecoveryVerdicts verify(
      const RecoveredCrash& crash,
      const std::vector<LogicalPageAddr>& addresses) const {
    return verify_recovery(
        crash, RecoveryReference{.scheme_spec = spec_,
                                 .endurance = endurance_,
                                 .config = config_,
                                 .addresses = addresses});
  }

  const std::string spec_ = "TWL";
  Config config_;
  EnduranceMap endurance_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<WearLeveler> wl_;
  std::unique_ptr<WearLeveler> recovered_;
  std::vector<std::unique_ptr<WearLeveler>> clones_;
  std::vector<LogicalPageAddr> addresses_;
  std::uint64_t in_flight_ = 0;
  RecoveryOutcome outcome_;
};

TEST_F(VerifyRecovery, TheTrueClaimPassesAllFive) {
  ASSERT_EQ(outcome_.replayed_writes, kCrashWrite - 1);
  ASSERT_TRUE(outcome_.rolled_back_la.has_value());
  ASSERT_GT(in_flight_, 0u);
  const RecoveryVerdicts v = verify(true_claim(), addresses_);
  EXPECT_TRUE(v.mapping_bijective);
  EXPECT_TRUE(v.state_matches_reference);
  EXPECT_TRUE(v.rollback_consistent);
  EXPECT_TRUE(v.wear_drift_bounded);
  EXPECT_TRUE(v.continuation_matches);
  EXPECT_TRUE(v.all_hold());
}

TEST_F(VerifyRecovery, AChangedReferenceAddressFailsInvariantTwo) {
  std::vector<LogicalPageAddr> changed = addresses_;
  const std::uint64_t pages = wl_->logical_pages();
  changed[5] = LogicalPageAddr(
      static_cast<std::uint32_t>((changed[5].value() + 1) % pages));
  const RecoveryVerdicts v = verify(true_claim(), changed);
  EXPECT_FALSE(v.state_matches_reference);
  EXPECT_FALSE(v.all_hold());
}

TEST_F(VerifyRecovery, LandingTwoWritesShortFailsInvariantThree) {
  RecoveredCrash claim = true_claim();
  claim.committed_writes = kCrashWrite - 2;
  EXPECT_FALSE(verify(claim, addresses_).rollback_consistent);
  // Claims past the supplied addresses stay checkable.
  claim.committed_writes = kCrashWrite + kContinuation + 5;
  EXPECT_FALSE(verify(claim, addresses_).rollback_consistent);
}

TEST_F(VerifyRecovery, RollingBackAnotherPageFailsInvariantThree) {
  RecoveredCrash claim = true_claim();
  const std::uint64_t pages = wl_->logical_pages();
  claim.rolled_back_la = LogicalPageAddr(
      static_cast<std::uint32_t>((claim.crash_la.value() + 1) % pages));
  const RecoveryVerdicts v = verify(claim, addresses_);
  EXPECT_FALSE(v.rollback_consistent);
  EXPECT_TRUE(v.state_matches_reference);
}

TEST_F(VerifyRecovery, UnderstatedInFlightWritesFailInvariantFour) {
  RecoveredCrash claim = true_claim();
  claim.in_flight_writes = in_flight_ - 1;
  const RecoveryVerdicts v = verify(claim, addresses_);
  EXPECT_FALSE(v.wear_drift_bounded);
  EXPECT_TRUE(v.state_matches_reference);
}

TEST_F(VerifyRecovery, ContinuingFromAnotherStateFailsInvariantFive) {
  const auto fresh = make_wear_leveler_spec(spec_, endurance_, config_);
  const RecoveredCrash truth = true_claim();
  const RecoveredCrash claim{.recovered = truth.recovered,
                             .continued = *fresh,
                             .device = truth.device,
                             .crash_write = truth.crash_write,
                             .crash_la = truth.crash_la,
                             .in_flight_writes = truth.in_flight_writes,
                             .committed_writes = truth.committed_writes,
                             .rolled_back_la = truth.rolled_back_la};
  const RecoveryVerdicts v = verify(claim, addresses_);
  EXPECT_FALSE(v.continuation_matches);
  EXPECT_TRUE(v.state_matches_reference);
}

TEST_F(VerifyRecovery, AFaultOutsideTheSnapshotFailsInvariantFive) {
  // The crash simulator's shape: the recovered object is the continued
  // one. Its snapshot is right, so invariants 1-4 hold; its writes drift.
  DriftsAfterOneWrite drifting(*recovered_);
  const RecoveredCrash truth = true_claim();
  const RecoveredCrash claim{.recovered = drifting,
                             .continued = drifting,
                             .device = truth.device,
                             .crash_write = truth.crash_write,
                             .crash_la = truth.crash_la,
                             .in_flight_writes = truth.in_flight_writes,
                             .committed_writes = truth.committed_writes,
                             .rolled_back_la = truth.rolled_back_la};
  const RecoveryVerdicts v = verify(claim, addresses_);
  EXPECT_TRUE(v.mapping_bijective);
  EXPECT_TRUE(v.state_matches_reference);
  EXPECT_TRUE(v.rollback_consistent);
  EXPECT_TRUE(v.wear_drift_bounded);
  EXPECT_FALSE(v.continuation_matches);
}

}  // namespace
}  // namespace twl
