#include "host_speed.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

/// Kernel steps per probe: about kProbeReferenceNs (17 ms) on the
/// reference host.
constexpr std::uint32_t kProbeSteps = 60000;
constexpr std::uint32_t kRanks = 4096;    // Zipf CDF entries (32 KiB).
constexpr std::uint32_t kPages = 1 << 16;  // Map + wear tables (512 KiB).
constexpr std::size_t kHeapSize = 512;
constexpr std::size_t kLogRecords = 1024;

/// One of four record formats, dispatched virtually as the program
/// dispatches through its scheme, device and source interfaces.
class Op {
 public:
  Op() = default;
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;
  virtual ~Op() = default;
  virtual std::uint64_t apply(std::uint32_t page, std::uint32_t wear) = 0;
};

template <int K>
class MixOp final : public Op {
 public:
  std::uint64_t apply(std::uint32_t page, std::uint32_t wear) override {
    acc_ = (acc_ ^ (page + K)) * 0x9E3779B97F4A7C15ULL + wear;
    return acc_ >> (8 * K);
  }

 private:
  std::uint64_t acc_ = K;
};

std::array<std::uint32_t, 256> crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

}  // namespace

struct HostProbe::State {
  std::uint64_t rng = 0x2545F4914F6CDD1DULL;
  std::vector<double> cdf;
  std::vector<std::uint32_t> map;
  std::vector<std::uint32_t> wear;
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      heap;
  std::uint64_t clock = 0;
  std::array<std::unique_ptr<Op>, 4> ops{
      std::make_unique<MixOp<0>>(), std::make_unique<MixOp<1>>(),
      std::make_unique<MixOp<2>>(), std::make_unique<MixOp<3>>()};
  std::array<std::uint32_t, 256> crc = crc_table();
  std::vector<std::vector<std::uint8_t>> log;
  std::uint64_t sink = 0;

  State() : cdf(kRanks), map(kPages), wear(kPages, 0) {
    double sum = 0;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      sum += 1.0 / (r + 1);
      cdf[r] = sum;
    }
    for (double& c : cdf) c /= sum;
    for (std::uint32_t p = 0; p < kPages; ++p) map[p] = p;
    for (std::uint32_t p = kPages - 1; p > 0; --p) {
      std::swap(map[p], map[next() % (p + 1)]);
    }
    log.reserve(kLogRecords);
  }

  std::uint64_t next() {  // xorshift64*
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return rng * 0x2545F4914F6CDD1DULL;
  }

  void step() {
    const std::uint64_t x = next();
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    const auto rank = static_cast<std::uint32_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::uint32_t slot = (rank * 2654435761u + (x & 0xFF)) % kPages;
    const std::uint32_t page = map[slot];
    const std::uint32_t w = ++wear[page];
    if ((w & 63) == 0 && ((x >> 20) & 1)) {
      std::swap(map[slot], map[(x >> 32) % kPages]);
    }
    heap.emplace(clock + (x & 1023), page);
    if (heap.size() > kHeapSize) {
      clock = heap.top().first;
      heap.pop();
    }
    sink += ops[x >> 62]->apply(page, w);
    if ((x & 3) == 0) {
      std::vector<std::uint8_t> rec(24 + ((x >> 40) & 31));
      for (std::size_t i = 0; i < rec.size(); ++i) {
        rec[i] = static_cast<std::uint8_t>((x >> (i & 56)) + i);
      }
      std::uint32_t c = 0xFFFFFFFFu;
      for (const std::uint8_t b : rec) c = crc[(c ^ b) & 0xFF] ^ (c >> 8);
      sink += c;
      log.push_back(std::move(rec));
      if (log.size() == kLogRecords) log.clear();
    }
  }
};

HostProbe::HostProbe() : state_(std::make_unique<State>()) {
  sample();  // Warms the tables and the allocator; not a reading.
  speeds_.clear();
}

HostProbe::~HostProbe() = default;

void HostProbe::sample() {
  const std::int64_t t0 = cpu_ns();
  for (std::uint32_t i = 0; i < kProbeSteps; ++i) state_->step();
  const auto ns = static_cast<double>(cpu_ns() - t0);
  // Keeps the kernel's results live.
  asm volatile("" : : "r"(state_->sink) : "memory");
  speeds_.push_back(kProbeReferenceNs / ns);
}

}  // namespace perfbench
