// Synthetic request streams.
//
// RequestSource is the interface every workload (synthetic benchmark
// models, attack drivers run open-loop, microbenchmarks) presents to the
// simulators. SyntheticTrace generates the mixture used by the PARSEC
// models: a Zipf-skewed hot set (scattered over the address space by a
// fixed random permutation) blended with a sequential streaming component,
// plus a configurable read fraction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "trace/zipf.h"

namespace twl {

class RequestSource {
 public:
  virtual ~RequestSource() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Produce the next request. Sources are infinite (lifetime experiments
  /// replay workloads "in loops until a PCM page wears out", Section 5.1).
  virtual MemoryRequest next() = 0;

  /// Whether next() ever gives a write. A source that may hold only
  /// reads (a trace file) overrides it; a wrapper forwards it.
  [[nodiscard]] virtual bool has_writes() const { return true; }

  /// The address of the next write, skipping the reads before it: the
  /// stream next() gives with its reads dropped, for simulators that
  /// count wear only. A source overrides it when a discarded read can
  /// cost less than next() makes it cost. Throws std::runtime_error
  /// naming the source when has_writes() is false, rather than looping.
  virtual LogicalPageAddr next_write();
};

struct SyntheticParams {
  std::uint64_t pages = 4096;  ///< Logical footprint.
  double zipf_s = 1.0;         ///< Skew of the hot component.
  double stream_frac = 0.1;    ///< Fraction of writes that stream sequentially.
  double read_frac = 0.6;      ///< Fraction of requests that are reads.
  std::uint64_t seed = 1;
};

class SyntheticTrace final : public RequestSource {
 public:
  /// Writes next_write() draws ahead at a time.
  static constexpr std::size_t kBlockWrites = 256;

  /// Throws std::invalid_argument naming the field unless pages lies in
  /// [1, 2^32], read_frac in [0, 1), stream_frac in [0, 1] and zipf_s is
  /// finite.
  explicit SyntheticTrace(const SyntheticParams& params,
                          std::string name = "synthetic");

  [[nodiscard]] std::string name() const override { return name_; }

  MemoryRequest next() override;
  /// The writes next() gives, reads dropped, popped from a block of
  /// kBlockWrites drawn ahead; next() carries on from the last write
  /// handed out.
  LogicalPageAddr next_write() override;

  /// The page receiving the largest share of writes (for calibration
  /// tests).
  [[nodiscard]] LogicalPageAddr hottest_page() const {
    return LogicalPageAddr(rank_to_page_[0]);
  }

  [[nodiscard]] const SyntheticParams& params() const { return params_; }

 private:
  /// One request, the order of the draws that defines the stream: the
  /// read coin, the stream coin, then the Zipf draw unless the request
  /// streams (a streaming read advances the stream position too).
  [[nodiscard]] MemoryRequest draw();

  /// Draws the next kBlockWrites writes into block_: exactly the draws
  /// draw() makes for them, without a branch on a coin.
  void refill();

  /// Puts the generator where the writes handed out leave it: back to
  /// the block's start, then those writes again through draw().
  void rewind();

  SyntheticParams params_;
  std::string name_;
  std::uint64_t read_below_;    ///< A 53-bit read coin below this reads.
  std::uint64_t stream_below_;  ///< A 53-bit stream coin below this streams.
  XorShift64Star rng_;
  ZipfSampler zipf_;
  std::vector<std::uint32_t> rank_to_page_;  ///< Scatter permutation.
  std::uint64_t stream_pos_ = 0;

  std::array<std::uint32_t, kBlockWrites> block_{};
  std::size_t head_ = kBlockWrites;  ///< Next write of block_ to hand out.
  std::uint64_t block_state_ = 0;    ///< rng_ at the block's first draw.
  std::uint64_t block_stream_pos_ = 0;  ///< stream_pos_ there.
};

/// Uniform-random request stream (used by tests and the random attack's
/// open-loop cousin).
class UniformTrace final : public RequestSource {
 public:
  /// Throws std::invalid_argument naming the field unless pages lies in
  /// [1, 2^32] and read_frac in [0, 1).
  UniformTrace(std::uint64_t pages, double read_frac, std::uint64_t seed);

  [[nodiscard]] std::string name() const override { return "uniform"; }
  MemoryRequest next() override;

 private:
  std::uint64_t pages_;
  double read_frac_;
  XorShift64Star rng_;
};

}  // namespace twl
