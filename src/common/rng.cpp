#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "recovery/snapshot.h"

namespace twl {

std::uint64_t SplitMix64::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

XorShift64Star::XorShift64Star(std::uint64_t seed) {
  // xorshift64* must not be seeded with 0; run the seed through SplitMix64
  // so trivially-related user seeds give unrelated streams.
  SplitMix64 sm(seed);
  state_ = sm.next();
  if (state_ == 0) state_ = 0x2545F4914F6CDD1DULL;
}

std::uint64_t XorShift64Star::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection-free multiply-shift (Lemire); bias is < 2^-64 * bound, far
  // below anything observable in these simulations.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double XorShift64Star::next_gaussian() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_gaussian_;
  }
  // Box–Muller.
  double u1 = next_double();
  while (u1 <= 1e-300) u1 = next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_ = true;
  return r * std::cos(theta);
}

void XorShift64Star::save_state(SnapshotWriter& w) const {
  w.put_u64(state_);
  w.put_double(cached_gaussian_);
  w.put_bool(has_cached_);
}

void XorShift64Star::load_state(SnapshotReader& r) {
  state_ = r.get_u64();
  cached_gaussian_ = r.get_double();
  has_cached_ = r.get_bool();
}

Feistel8::Feistel8(std::uint64_t seed) {
  SplitMix64 sm(seed);
  const std::uint64_t k = sm.next();
  for (int i = 0; i < kRounds; ++i) {
    keys_[i] = static_cast<std::uint8_t>((k >> (8 * i)) & 0x0F);
  }
  counter_ = static_cast<std::uint8_t>(sm.next());
}

std::uint8_t Feistel8::round_fn(std::uint8_t half, std::uint8_t key) {
  // 4-bit mix: xor with key, nibble rotate, add key. All operations are a
  // few gates wide; the whole round function is well under 32 gates.
  std::uint8_t x = (half ^ key) & 0x0F;
  x = static_cast<std::uint8_t>(((x << 1) | (x >> 3)) & 0x0F);
  return static_cast<std::uint8_t>((x + key) & 0x0F);
}

std::uint8_t Feistel8::encrypt(std::uint8_t plaintext) const {
  std::uint8_t left = (plaintext >> 4) & 0x0F;
  std::uint8_t right = plaintext & 0x0F;
  for (int i = 0; i < kRounds; ++i) {
    const std::uint8_t next_left = right;
    right = static_cast<std::uint8_t>((left ^ round_fn(right, keys_[i])) & 0x0F);
    left = next_left;
  }
  return static_cast<std::uint8_t>((left << 4) | right);
}

void Feistel8::save_state(SnapshotWriter& w) const { w.put_u8(counter_); }

void Feistel8::load_state(SnapshotReader& r) { counter_ = r.get_u8(); }

std::uint8_t Feistel8::next_byte() { return encrypt(counter_++); }

double Feistel8::next_alpha() {
  return static_cast<double>(next_byte()) / 256.0;
}

}  // namespace twl
