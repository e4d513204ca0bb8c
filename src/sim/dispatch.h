// The typed write path: the one place that decides, once per run, which
// concrete scheme, device and attacker types a simulator's write loop is
// compiled for.
//
// Schemes, devices and attack programs are reached through virtual
// interfaces, because the factories pick them at run time. Through the
// generic MemoryController a write therefore crosses indirect calls
// (attacker, scheme, write sink, device) that no optimizer can inline.
// For the pairs listed here the controller is instantiated over the
// concrete final classes instead, and the simulators run their loop as
// a [[gnu::flatten]] function template over the controller (and the
// attacker), so in the link-time optimized Release build one write is
// one inlined loop body. Both instances compile from one source
// (memory_controller.cpp), and every result is the same either way.
//
// The list:
//  * controller: TossUpWl on PcmDevice, which is every TWL variant in the
//    paper's figures;
//  * attacker: InconsistentAttack, the paper's closed-loop attack.
// Everything else runs the generic instance. A type joins the list only
// with a measured gain on a workload that runs it (DESIGN.md §12): each
// entry costs text for the flattened loops that take it.
#pragma once

#include "attack/attacks.h"
#include "common/config.h"
#include "device/device.h"
#include "pcm/device.h"
#include "sim/memory_controller.h"
#include "wl/tossup_wl.h"
#include "wl/wear_leveler.h"

namespace twl {

/// The controller over TossUpWl and PcmDevice.
using TossUpPcmController = BasicMemoryController<TossUpWl, PcmDevice>;

extern template class BasicMemoryController<TossUpWl, PcmDevice>;

/// Builds a controller over `device` and `wl` and returns
/// `body(controller)`: a TossUpPcmController when `wl` is a TossUpWl and
/// `device` a PcmDevice, a MemoryController otherwise. `body` must return
/// the same type for both.
template <class Body>
auto with_controller(Device& device, WearLeveler& wl, const Config& config,
                     bool enable_timing, Body&& body) {
  auto* const tossup = dynamic_cast<TossUpWl*>(&wl);
  auto* const pcm = dynamic_cast<PcmDevice*>(&device);
  if (tossup != nullptr && pcm != nullptr) {
    TossUpPcmController controller(*pcm, *tossup, config, enable_timing);
    return body(controller);
  }
  MemoryController controller(device, wl, config, enable_timing);
  return body(controller);
}

/// Returns `body(attack)`, passing `attack` as an InconsistentAttack when
/// it is one.
template <class Body>
auto with_attack(AttackProgram& attack, Body&& body) {
  if (auto* const inconsistent = dynamic_cast<InconsistentAttack*>(&attack)) {
    return body(*inconsistent);
  }
  return body(attack);
}

}  // namespace twl
