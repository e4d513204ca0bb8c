// Random number generation.
//
// Three generators are provided:
//  * SplitMix64     — seeding / general-purpose, passes BigCrush-lite.
//  * XorShift64Star — fast simulation-side randomness (workloads, PV draws).
//  * Feistel8       — the hardware RNG the paper actually proposes for the
//    TWL engine: an 8-bit-wide keyed Feistel network costing < 128 logic
//    gates (Section 5.4, following Start-Gap's randomized variant [10]).
//
// The TWL engine in src/wl/tossup_wl.* uses Feistel8 so that the simulated
// toss-up consumes exactly the randomness the proposed hardware would have.
#pragma once

#include <cmath>
#include <cstdint>

namespace twl {

class SnapshotReader;
class SnapshotWriter;

/// SplitMix64 (Steele et al.). Used to expand a user seed into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xorshift64* (Vigna). The workhorse generator for simulation decisions.
class XorShift64Star {
 public:
  explicit XorShift64Star(std::uint64_t seed);

  // Inline: every synthetic request draws two or three of these.
  std::uint64_t next() { return step(state_); }

  /// One xorshift64* step on a bare state word, the step next() takes:
  /// for kernels that keep a copy of the state in a register.
  static std::uint64_t step(std::uint64_t& state) {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }

  /// The 53 high bits of the next draw, the integer next_double() scales:
  /// next_double() is exactly next_u53() * 2^-53.
  std::uint64_t next_u53() { return next() >> 11; }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u53()) * 0x1.0p-53;
  }

  /// The integer coin for a probability p in [0, 1]: next_double() < p
  /// exactly when next_u53() < u53_below(p). Both x * 2^-53 and p * 2^53
  /// are exact, so x * 2^-53 < p means x < p * 2^53, and for an integer
  /// x that is x < ceil(p * 2^53).
  static std::uint64_t u53_below(double p) {
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// The bare state word, for a kernel that steps a copy with step() and
  /// stores it back with set_state(). The cached Box–Muller draw is not
  /// part of it.
  [[nodiscard]] std::uint64_t state() const { return state_; }
  void set_state(std::uint64_t state) { state_ = state; }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Standard normal via Box–Muller (cached second draw).
  double next_gaussian();

  /// Crash-recovery serialization: the full generator state (including
  /// the cached Box–Muller draw) round-trips byte-exactly.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  std::uint64_t state_;
  double cached_gaussian_ = 0.0;
  bool has_cached_ = false;
};

/// 8-bit keyed Feistel network, 4 rounds, 4-bit halves.
///
/// This is the gate-level RNG costed in Section 5.4 (< 128 gates). Each
/// call encrypts an incrementing counter under per-round keys, yielding a
/// pseudo-random byte; `next_alpha()` maps it to [0, 1) for the toss-up
/// comparison against E_A / (E_A + E_B).
class Feistel8 {
 public:
  explicit Feistel8(std::uint64_t seed);

  /// Next pseudo-random byte.
  std::uint8_t next_byte();

  /// Next alpha in [0, 1) with 8-bit resolution, as the hardware would
  /// produce (the comparator in Figure 4(b) is 8 bits wide).
  double next_alpha();

  /// Encrypt a single byte (exposed for the bijectivity property test:
  /// a Feistel network is a permutation of its domain).
  [[nodiscard]] std::uint8_t encrypt(std::uint8_t plaintext) const;

  static constexpr int kRounds = 4;

  /// Crash-recovery serialization. The round keys are derived from the
  /// construction seed (which recovery reuses); only the counter is
  /// mutable state.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  /// 4-bit round function: a tiny keyed S-box-like mix, implementable in a
  /// handful of gates.
  [[nodiscard]] static std::uint8_t round_fn(std::uint8_t half,
                                             std::uint8_t key);

  std::uint8_t keys_[kRounds] = {};
  std::uint8_t counter_ = 0;
};

}  // namespace twl
