#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace twl {
namespace {

SyntheticParams params(std::uint64_t pages, double s, double stream,
                       double read) {
  SyntheticParams p;
  p.pages = pages;
  p.zipf_s = s;
  p.stream_frac = stream;
  p.read_frac = read;
  p.seed = 7;
  return p;
}

TEST(SyntheticTrace, AddressesInRange) {
  SyntheticTrace t(params(64, 1.0, 0.2, 0.5));
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(t.next().addr.value(), 64u);
  }
}

TEST(SyntheticTrace, ReadFractionRespected) {
  SyntheticTrace t(params(64, 1.0, 0.0, 0.6));
  int reads = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (t.next().op == Op::kRead) ++reads;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.6, 0.02);
}

TEST(SyntheticTrace, ZeroReadFractionIsAllWrites) {
  SyntheticTrace t(params(64, 1.0, 0.0, 0.0));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(t.next().op, Op::kWrite);
  }
}

TEST(SyntheticTrace, HottestPageGetsTopShare) {
  SyntheticParams p = params(256, 0.0, 0.0, 0.0);
  p.zipf_s = ZipfSampler::solve_exponent_for_top_fraction(256, 0.3);
  SyntheticTrace t(p);
  std::map<std::uint32_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[t.next().addr.value()];
  EXPECT_NEAR(static_cast<double>(counts[t.hottest_page().value()]) / n, 0.3,
              0.02);
}

TEST(SyntheticTrace, HotPageIsScatteredNotZero) {
  // Different seeds scatter the hot rank to different pages.
  SyntheticParams a = params(1024, 2.0, 0.0, 0.0);
  a.seed = 1;
  SyntheticParams b = a;
  b.seed = 2;
  EXPECT_NE(SyntheticTrace(a).hottest_page(),
            SyntheticTrace(b).hottest_page());
}

TEST(SyntheticTrace, StreamComponentCoversSpaceSequentially) {
  SyntheticTrace t(params(16, 0.0, 1.0, 0.0));
  // Pure stream: consecutive addresses modulo the footprint.
  const auto first = t.next().addr.value();
  const auto second = t.next().addr.value();
  EXPECT_EQ((first + 1) % 16, second);
}

TEST(SyntheticTrace, DeterministicForSeed) {
  SyntheticTrace a(params(64, 1.0, 0.3, 0.4));
  SyntheticTrace b(params(64, 1.0, 0.3, 0.4));
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    EXPECT_EQ(ra.op, rb.op);
    EXPECT_EQ(ra.addr, rb.addr);
  }
}

/// Address of the next write, found the way every simulator found it
/// before next_write(): call next() and drop the reads.
LogicalPageAddr filtered_next(RequestSource& source) {
  for (;;) {
    const MemoryRequest req = source.next();
    if (req.op == Op::kWrite) return req.addr;
  }
}

TEST(SyntheticTrace, NextWriteEqualsFilteredNext) {
  for (const double read : {0.0, 0.6, 0.95}) {
    for (const double stream : {0.0, 0.1, 1.0}) {
      for (const std::uint64_t pages : {1u, 7u, 256u}) {
        SCOPED_TRACE(::testing::Message() << "read_frac=" << read
                                          << " stream_frac=" << stream
                                          << " pages=" << pages);
        const SyntheticParams p = params(pages, 1.1986, stream, read);
        SyntheticTrace filtered(p);
        SyntheticTrace writes_only(p);
        for (int i = 0; i < 20000; ++i) {
          ASSERT_EQ(writes_only.next_write(), filtered_next(filtered)) << i;
        }
        // Both consumed the same draws: the full streams, reads included,
        // carry on in step.
        for (int i = 0; i < 1000; ++i) {
          const MemoryRequest a = filtered.next();
          const MemoryRequest b = writes_only.next();
          ASSERT_EQ(a.op, b.op) << i;
          ASSERT_EQ(a.addr, b.addr) << i;
        }
      }
    }
  }
}

/// The synthetic stream written from its specification, sharing no code
/// with SyntheticTrace: its own SplitMix64 seeding, xorshift64* step,
/// double CDF searched with std::lower_bound and Fisher-Yates scatter.
/// Each request draws, in order, u_read (a read when below read_frac),
/// u_stream (streams when below stream_frac: the stream position
/// advances and is the address, for reads too) and, unless it streamed,
/// u_zipf, whose lower_bound rank over the CDF names a page through the
/// scatter.
class ReferenceStream {
 public:
  explicit ReferenceStream(const SyntheticParams& p)
      : p_(p),
        state_(seeded(p.seed ^ 0x57A71C7Aull)),
        cdf_(p.pages),
        page_of_rank_(p.pages) {
    double sum = 0.0;
    for (std::uint64_t k = 0; k < p.pages; ++k) {
      sum += std::pow(static_cast<double>(k + 1), -p.zipf_s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
    for (std::uint64_t k = 0; k < p.pages; ++k) {
      page_of_rank_[k] = static_cast<std::uint32_t>(k);
    }
    std::uint64_t shuffle = seeded(p.seed ^ 0x5CA77E2Full);
    for (std::uint64_t i = p.pages - 1; i > 0; --i) {
      // Lemire's multiply-shift: a draw in [0, i].
      const std::uint64_t j = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(step(shuffle)) * (i + 1)) >> 64);
      std::swap(page_of_rank_[i], page_of_rank_[j]);
    }
  }

  MemoryRequest next() {
    const Op op = uniform() < p_.read_frac ? Op::kRead : Op::kWrite;
    if (uniform() < p_.stream_frac) {
      pos_ = (pos_ + 1) % p_.pages;
      return {op, LogicalPageAddr(static_cast<std::uint32_t>(pos_))};
    }
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), uniform()) -
        cdf_.begin());
    return {op, LogicalPageAddr(page_of_rank_[rank])};
  }

  LogicalPageAddr next_write() {
    for (;;) {
      const MemoryRequest req = next();
      if (req.op == Op::kWrite) return req.addr;
    }
  }

 private:
  static std::uint64_t seeded(std::uint64_t seed) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z != 0 ? z : 0x2545F4914F6CDD1Dull;
  }
  static std::uint64_t step(std::uint64_t& x) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x * 0x2545F4914F6CDD1Dull;
  }
  double uniform() {
    return static_cast<double>(step(state_) >> 11) / 9007199254740992.0;
  }

  SyntheticParams p_;
  std::uint64_t state_;
  std::uint64_t pos_ = 0;
  std::vector<double> cdf_;
  std::vector<std::uint32_t> page_of_rank_;
};

constexpr std::size_t kB = SyntheticTrace::kBlockWrites;

TEST(SyntheticTrace, MatchesTheReferenceStreamAcrossSwitches) {
  for (const std::uint64_t pages : {1u, 2u, 7u, 256u, 65536u}) {
    for (const double read : {0.0, 0.6, 0.95}) {
      for (const double stream : {0.0, 0.1, 1.0}) {
        SCOPED_TRACE(::testing::Message() << "pages=" << pages
                                          << " read_frac=" << read
                                          << " stream_frac=" << stream);
        const SyntheticParams p = params(pages, 1.1986, stream, read);
        const ReferenceStream fresh(p);
        {
          SyntheticTrace t(p);
          ReferenceStream ref = fresh;
          for (int i = 0; i < 3000; ++i) {
            const MemoryRequest a = t.next();
            const MemoryRequest b = ref.next();
            ASSERT_EQ(a.op, b.op) << i;
            ASSERT_EQ(a.addr, b.addr) << i;
          }
        }
        // Writes first, then next() from inside, at the edge of or past
        // the block, then writes again.
        for (const std::size_t writes :
             {std::size_t{0}, std::size_t{1}, kB - 1, kB, kB + 1,
              2 * kB + 3}) {
          SCOPED_TRACE(::testing::Message() << "switch after " << writes);
          SyntheticTrace t(p);
          ReferenceStream ref = fresh;
          for (int round = 0; round < 2; ++round) {
            for (std::size_t i = 0; i < writes; ++i) {
              ASSERT_EQ(t.next_write(), ref.next_write()) << i;
            }
            for (int i = 0; i < 5; ++i) {
              const MemoryRequest a = t.next();
              const MemoryRequest b = ref.next();
              ASSERT_EQ(a.op, b.op) << i;
              ASSERT_EQ(a.addr, b.addr) << i;
            }
          }
          for (std::size_t i = 0; i < 2 * kB + 7; ++i) {
            ASSERT_EQ(t.next_write(), ref.next_write()) << i;
          }
        }
      }
    }
  }
}

/// The message of the std::invalid_argument `make` throws; empty (and a
/// test failure) when it throws none.
template <typename Make>
std::string invalid_argument_of(Make make) {
  try {
    make();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no std::invalid_argument";
  return {};
}

TEST(SyntheticTrace, RejectsPagesOutsideThe32BitRange) {
  for (const std::uint64_t pages : {std::uint64_t{0},
                                    (std::uint64_t{1} << 32) + 1}) {
    SyntheticParams p = params(64, 1.0, 0.1, 0.6);
    p.pages = pages;
    const std::string what =
        invalid_argument_of([&] { SyntheticTrace t(p); });
    EXPECT_NE(what.find("pages"), std::string::npos) << what;
  }
}

TEST(SyntheticTrace, RejectsAReadFractionOutsideZeroToOne) {
  // 1 would leave next_write() spinning forever.
  for (const double read : {1.0, -0.1, 1.5, std::nan("")}) {
    const std::string what = invalid_argument_of(
        [&] { SyntheticTrace t(params(64, 1.0, 0.1, read)); });
    EXPECT_NE(what.find("read_frac"), std::string::npos) << what;
  }
}

TEST(SyntheticTrace, RejectsAStreamFractionOutsideZeroToOne) {
  for (const double stream : {-0.1, 1.5, std::nan("")}) {
    const std::string what = invalid_argument_of(
        [&] { SyntheticTrace t(params(64, 1.0, stream, 0.6)); });
    EXPECT_NE(what.find("stream_frac"), std::string::npos) << what;
  }
}

TEST(SyntheticTrace, RejectsANonFiniteExponent) {
  for (const double s : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    const std::string what = invalid_argument_of(
        [&] { SyntheticTrace t(params(64, s, 0.1, 0.6)); });
    EXPECT_NE(what.find("zipf_s"), std::string::npos) << what;
  }
}

TEST(UniformTrace, RejectsPagesOutsideThe32BitRange) {
  for (const std::uint64_t pages : {std::uint64_t{0},
                                    (std::uint64_t{1} << 32) + 1}) {
    const std::string what =
        invalid_argument_of([&] { UniformTrace t(pages, 0.5, 1); });
    EXPECT_NE(what.find("pages"), std::string::npos) << what;
  }
}

TEST(UniformTrace, RejectsAReadFractionOutsideZeroToOne) {
  for (const double read : {1.0, -0.1, std::nan("")}) {
    const std::string what =
        invalid_argument_of([&] { UniformTrace t(64, read, 1); });
    EXPECT_NE(what.find("read_frac"), std::string::npos) << what;
  }
}

TEST(UniformTrace, DefaultNextWriteEqualsFilteredNext) {
  UniformTrace filtered(64, 0.6, 5);
  UniformTrace writes_only(64, 0.6, 5);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(writes_only.next_write(), filtered_next(filtered)) << i;
  }
  const MemoryRequest a = filtered.next();
  const MemoryRequest b = writes_only.next();
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.addr, b.addr);
}

TEST(UniformTrace, UniformCoverage) {
  UniformTrace t(32, 0.0, 3);
  std::map<std::uint32_t, int> counts;
  const int n = 64000;
  for (int i = 0; i < n; ++i) ++counts[t.next().addr.value()];
  for (const auto& [addr, count] : counts) {
    EXPECT_NEAR(count, n / 32, n / 32 * 0.15) << addr;
  }
}

}  // namespace
}  // namespace twl
