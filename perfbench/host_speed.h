// Host-speed normalization of the benchmark's host-time metrics.
//
// The benchmark runs on a few vCPUs of a shared host, where one thread's
// speed moves from minute to minute for reasons outside the program:
// time the hypervisor gives to other guests (steal), and contention from
// whatever shares the physical core, its caches and its memory. Timed
// runs of the same code spread by half their median between runs that
// way. Host-time metrics are therefore measured in two steps:
//
//  1. Every timed interval is read on the thread's CPU clock. The guest
//     kernel accounts steal apart from task time, so the CPU clock does
//     not advance while the vCPU is descheduled by the host, nor while
//     the thread waits for the guest's other processes.
//  2. A run's host-time values are scaled by the host's speed over the
//     run. HostProbe runs a fixed calibration kernel, part of the
//     benchmark and never of the program, whose mix of work resembles the
//     program's hot paths (a Zipf binary search, random table updates
//     with data-dependent swaps, an event heap, virtual dispatch,
//     heap-built CRC'd records), before every entry-point call and after
//     every pass. Its CPU time on the reference host is
//     kProbeReferenceNs; each sample records that over the time it takes
//     now, so a host running everything 1.5x slower reads 0.67.
//
// A change to the program moves the timed calls but not the kernel, so
// it shows in full; a slower or faster host moves both and cancels.
#pragma once

#include <time.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread, in ns.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CPU time of one probe on the reference host: about the median on the
/// 4-vCPU Intel Xeon VM (2.1 GHz nominal) the benchmark's bounds were
/// measured on. Every host-time metric is reported at this speed.
inline constexpr double kProbeReferenceNs = 17.0e6;

class HostProbe {
 public:
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the calibration kernel once and records the host's speed
  /// relative to the reference host (kProbeReferenceNs / CPU time taken).
  void sample();
  /// Every speed sampled so far.
  [[nodiscard]] const std::vector<double>& speeds() const { return speeds_; }

 private:
  struct State;
  std::unique_ptr<State> state_;
  std::vector<double> speeds_;
};

/// Times one entry-point call on the CPU clock, after a host-speed probe:
/// the probes of a run interleave with its calls.
class TimedCall {
 public:
  explicit TimedCall(HostProbe& probe) {
    probe.sample();
    t0_ = cpu_ns();
  }

  /// Demand writes per CPU second of the call.
  [[nodiscard]] double rate(std::uint64_t writes) const {
    return static_cast<double>(writes) /
           (static_cast<double>(cpu_ns() - t0_) * 1e-9);
  }

 private:
  std::int64_t t0_ = 0;
};

}  // namespace perfbench
