#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include <map>

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
