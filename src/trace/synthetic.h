// Synthetic request streams.
//
// RequestSource is the interface every workload (synthetic benchmark
// models, attack drivers run open-loop, microbenchmarks) presents to the
// simulators. SyntheticTrace generates the mixture used by the PARSEC
// models: a Zipf-skewed hot set (scattered over the address space by a
// fixed random permutation) blended with a sequential streaming component,
// plus a configurable read fraction.
#pragma once

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

  /// The address of the next write, skipping the reads before it: the
  /// stream next() gives with its reads dropped, for simulators that
  /// count wear only. A source overrides it when a discarded read can
  /// cost less than next() makes it cost.
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
  explicit SyntheticTrace(const SyntheticParams& params,
                          std::string name = "synthetic");

  [[nodiscard]] std::string name() const override { return name_; }

  MemoryRequest next() override;
  /// Draws exactly what next() draws, but maps no Zipf read to its page.
  LogicalPageAddr next_write() override;

  /// The page receiving the largest share of writes (for calibration
  /// tests).
  [[nodiscard]] LogicalPageAddr hottest_page() const {
    return LogicalPageAddr(rank_to_page_[0]);
  }

  [[nodiscard]] const SyntheticParams& params() const { return params_; }

 private:
  /// One request. Every request consumes the same draws in the same
  /// order: the read coin, the stream coin, then the Zipf u unless it
  /// streams (a streaming read advances the stream position too). With
  /// `map_reads` false a Zipf read's address is left 0: rank_of and the
  /// scatter lookup consume no randomness, so skipping them leaves the
  /// stream of later requests unchanged.
  [[nodiscard]] MemoryRequest draw(bool map_reads);

  SyntheticParams params_;
  std::string name_;
  XorShift64Star rng_;
  ZipfSampler zipf_;
  std::vector<std::uint32_t> rank_to_page_;  ///< Scatter permutation.
  std::uint64_t stream_pos_ = 0;
};

/// Uniform-random request stream (used by tests and the random attack's
/// open-loop cousin).
class UniformTrace final : public RequestSource {
 public:
  UniformTrace(std::uint64_t pages, double read_frac, std::uint64_t seed);

  [[nodiscard]] std::string name() const override { return "uniform"; }
  MemoryRequest next() override;

 private:
  std::uint64_t pages_;
  double read_frac_;
  XorShift64Star rng_;
};

}  // namespace twl
