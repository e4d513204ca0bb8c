// The typed write path (sim/dispatch.h) must change no result. The
// simulators run a typed controller and attacker where the dispatch finds
// them and the generic ones elsewhere, so every scheme on every backend it
// accepts, under every attack program, is checked here against a loop
// over a hand-built generic MemoryController. One controller-level case
// drives BasicMemoryController<TossUpWl, PcmDevice> and the generic
// instance side by side with timing, a journal and retirement on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "attack/attacks.h"
#include "common/config.h"
#include "common/rng.h"
#include "device/factory.h"
#include "pcm/device.h"
#include "recovery/journal.h"
#include "recovery/snapshot.h"
#include "sim/attack_sim.h"
#include "sim/dispatch.h"
#include "sim/lifetime_sim.h"
#include "trace/synthetic.h"
#include "wl/factory.h"
#include "wl/tossup_wl.h"

namespace twl {
namespace {

constexpr WriteCount kCap = 1 << 15;
constexpr std::uint64_t kAttackSeed = 5;

Config small_config(DeviceBackend backend) {
  SimScale scale;
  scale.pages = 64;
  // Low enough that TWL on PCM wears out within the cap.
  scale.endurance_mean = 256;
  Config config = Config::scaled(scale);
  config.device.backend = backend;
  // Short phases, so the prediction schemes swap within the cap.
  config.wrl.prediction_writes = 512;
  config.bwl.epoch_writes = 512;
  config.bwl.epoch_min = 128;
  config.bwl.epoch_max = 4096;
  return config;
}

/// Every scheme the factory builds, FTL included.
std::vector<Scheme> every_scheme() {
  std::vector<Scheme> schemes = all_schemes();
  schemes.push_back(Scheme::kFtl);
  return schemes;
}

constexpr DeviceBackend kBackends[] = {DeviceBackend::kPcm, DeviceBackend::kNor,
                                       DeviceBackend::kHybrid};

bool is_tossup(Scheme s) {
  return s == Scheme::kTossUpAdjacent || s == Scheme::kTossUpStrongWeak ||
         s == Scheme::kTossUpRandomPair;
}

/// A fresh device and scheme, as the simulators build them; nullopt when
/// the scheme rejects the backend.
struct Stack {
  std::unique_ptr<Device> device;
  std::unique_ptr<WearLeveler> wl;
};

std::optional<Stack> make_stack(Scheme scheme, const EnduranceMap& endurance,
                                const Config& config) {
  Stack stack;
  try {
    stack.wl = make_wear_leveler(scheme, endurance, config);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  stack.device = make_device(endurance, config);
  return stack;
}

std::vector<WriteCount> wear_of(const Device& device) {
  std::vector<WriteCount> wear(device.pages());
  for (std::uint64_t p = 0; p < wear.size(); ++p) {
    wear[p] = device.writes(PhysicalPageAddr(static_cast<std::uint32_t>(p)));
  }
  return wear;
}

/// What a run leaves behind.
struct Outcome {
  bool failed = false;
  Cycles end_time = 0;
  ControllerStats stats;
  std::vector<WriteCount> wear;
};

/// AttackSimulator::run's loop over a generic MemoryController.
Outcome reference_attack(Stack& stack, const Config& config,
                         AttackProgram& attack) {
  MemoryController controller(*stack.device, *stack.wl, config,
                              /*enable_timing=*/true);
  const std::uint64_t space = stack.wl->logical_pages();
  Cycles now = 0;
  Cycles last = 0;
  while (!controller.device_failed() &&
         controller.stats().demand_writes < kCap) {
    MemoryRequest req = attack.next(last);
    req.addr = LogicalPageAddr(req.addr.value() % space);
    last = controller.submit(req, now);
    now += last;
  }
  return Outcome{controller.device_failed(), now, controller.stats(),
                 wear_of(*stack.device)};
}

/// LifetimeSimulator::run's loop over a generic MemoryController.
Outcome reference_lifetime(Stack& stack, const Config& config,
                           RequestSource& source) {
  MemoryController controller(*stack.device, *stack.wl, config,
                              /*enable_timing=*/false);
  const std::uint64_t space = stack.wl->logical_pages();
  while (!controller.device_failed() &&
         controller.stats().demand_writes < kCap) {
    const LogicalPageAddr la(source.next_write().value() % space);
    controller.submit(MemoryRequest{Op::kWrite, la}, 0);
  }
  return Outcome{controller.device_failed(), 0, controller.stats(),
                 wear_of(*stack.device)};
}

std::unique_ptr<SyntheticTrace> lifetime_source() {
  SyntheticParams sp;
  sp.pages = 64;
  sp.zipf_s = 1.1;
  sp.seed = 9;
  return std::make_unique<SyntheticTrace>(sp, "zipf");
}

TEST(TypedDispatch, PicksTheTypedControllerOnlyForTossUpOnPcm) {
  for (const DeviceBackend backend : kBackends) {
    const Config config = small_config(backend);
    const EnduranceMap endurance(config.geometry.pages(), config.endurance,
                                 config.seed);
    for (const Scheme scheme : every_scheme()) {
      auto stack = make_stack(scheme, endurance, config);
      if (!stack) continue;
      SCOPED_TRACE(to_string(scheme) + " on " + to_string(backend));
      const bool typed = with_controller(
          *stack->device, *stack->wl, config, false, [](auto& controller) {
            return std::is_same_v<std::remove_cvref_t<decltype(controller)>,
                                  TossUpPcmController>;
          });
      EXPECT_EQ(typed, is_tossup(scheme) && backend == DeviceBackend::kPcm);
    }
  }
}

TEST(TypedDispatch, PicksTheTypedAttackerOnlyForInconsistent) {
  for (const std::string& name : all_attack_names()) {
    const auto attack = make_attack(name, 64, kAttackSeed);
    const bool typed = with_attack(*attack, [](auto& program) {
      return std::is_same_v<std::remove_cvref_t<decltype(program)>,
                            InconsistentAttack>;
    });
    EXPECT_EQ(typed, name == "inconsistent") << name;
  }
}

TEST(TypedDispatch, AttackRunsMatchAGenericLoop) {
  std::uint64_t runs = 0;
  for (const DeviceBackend backend : kBackends) {
    const Config config = small_config(backend);
    const AttackSimulator sim(config);
    for (const Scheme scheme : every_scheme()) {
      for (const std::string& name : all_attack_names()) {
        auto ref_stack = make_stack(scheme, sim.endurance(), config);
        if (!ref_stack) continue;
        SCOPED_TRACE(to_string(scheme) + " on " + to_string(backend) +
                     " under " + name);
        const std::uint64_t space = ref_stack->wl->logical_pages();
        const auto ref_attack = make_attack(name, space, kAttackSeed);
        const Outcome want = reference_attack(*ref_stack, config, *ref_attack);

        auto stack = make_stack(scheme, sim.endurance(), config);
        const auto attack = make_attack(name, space, kAttackSeed);
        const AttackResult got =
            sim.run_on(*stack->device, *stack->wl, *attack, kCap);
        EXPECT_EQ(got.failed, want.failed);
        EXPECT_EQ(got.demand_writes, want.stats.demand_writes);
        EXPECT_EQ(got.end_time, want.end_time);
        EXPECT_EQ(got.stats, want.stats);
        EXPECT_EQ(wear_of(*stack->device), want.wear);

        // run() builds the same stack itself.
        const auto again = make_attack(name, space, kAttackSeed);
        const AttackResult via_run = sim.run(scheme, *again, kCap);
        EXPECT_EQ(via_run.end_time, want.end_time);
        EXPECT_EQ(via_run.stats, want.stats);
        ++runs;
      }
    }
  }
  // 9 in-place schemes on 3 backends plus FTL on NOR, 4 attacks each.
  EXPECT_EQ(runs, (9u * 3u + 1u) * 4u);
}

TEST(TypedDispatch, LifetimeRunsMatchAGenericLoop) {
  std::uint64_t runs = 0;
  for (const DeviceBackend backend : kBackends) {
    const Config config = small_config(backend);
    const LifetimeSimulator sim(config);
    for (const Scheme scheme : every_scheme()) {
      auto ref_stack = make_stack(scheme, sim.endurance(), config);
      if (!ref_stack) continue;
      SCOPED_TRACE(to_string(scheme) + " on " + to_string(backend));
      const auto ref_source = lifetime_source();
      const Outcome want = reference_lifetime(*ref_stack, config, *ref_source);

      auto stack = make_stack(scheme, sim.endurance(), config);
      const auto source = lifetime_source();
      const LifetimeResult got =
          sim.run_on(*stack->device, *stack->wl, *source, kCap);
      EXPECT_EQ(got.failed, want.failed);
      EXPECT_EQ(got.demand_writes, want.stats.demand_writes);
      EXPECT_EQ(got.stats, want.stats);
      EXPECT_EQ(wear_of(*stack->device), want.wear);

      const auto again = lifetime_source();
      const LifetimeResult via_run = sim.run(scheme, *again, kCap);
      EXPECT_EQ(via_run.stats, want.stats);
      ++runs;
    }
  }
  EXPECT_EQ(runs, 9u * 3u + 1u);
}

/// One side of the controller-level comparison: a PCM device with the
/// stuck-at fault model, TWL, a journal and a timing-enabled controller.
template <class Controller>
struct Side {
  Side(const Config& config, const EnduranceMap& full_map)
      : device(EnduranceMap(config.geometry.pages(), config.endurance,
                            config.seed),
               config.fault, config.seed),
        wl(make_wear_leveler(Scheme::kTossUpStrongWeak, full_map, config)),
        controller(device, dynamic_cast<TossUpWl&>(*wl), config,
                   /*enable_timing=*/true) {
    controller.attach_journal(&journal);
  }

  PcmDevice device;
  std::unique_ptr<WearLeveler> wl;
  MetadataJournal journal;
  Controller controller;
};

TEST(TypedController, MatchesTheGenericControllerRequestForRequest) {
  SimScale scale;
  scale.pages = 128;
  scale.endurance_mean = 384;
  Config config = Config::scaled(scale);
  config.fault.ecp_k = 1;
  config.fault.spare_pages = 16;
  const EnduranceMap full_map(config.geometry.pages(), config.endurance,
                              config.seed);
  Side<TossUpPcmController> typed(config, full_map);
  Side<MemoryController> generic(config, full_map);

  XorShift64Star rng(17);
  const std::uint64_t space = generic.wl->logical_pages();
  Cycles now = 0;
  std::uint64_t requests = 0;
  while (!generic.controller.device_failed() && requests < 200000) {
    const Op op = rng.next_below(4) == 0 ? Op::kRead : Op::kWrite;
    const MemoryRequest req{
        op, LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(space)))};
    const Cycles latency = generic.controller.submit(req, now);
    ASSERT_EQ(typed.controller.submit(req, now), latency)
        << "request " << requests;
    ASSERT_EQ(typed.controller.device_failed(),
              generic.controller.device_failed());
    now += latency;
    ++requests;
  }
  // The run reached retirement, and the spare pool ran dry.
  EXPECT_GT(generic.controller.stats().pages_retired, 0u);
  EXPECT_TRUE(generic.controller.device_failed());
  EXPECT_EQ(typed.controller.stats(), generic.controller.stats());
  EXPECT_EQ(typed.journal.bytes(), generic.journal.bytes());
  EXPECT_EQ(take_snapshot(*typed.wl), take_snapshot(*generic.wl));
  EXPECT_EQ(wear_of(typed.device), wear_of(generic.device));
}

}  // namespace
}  // namespace twl
