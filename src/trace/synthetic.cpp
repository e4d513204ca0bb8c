#include "trace/synthetic.h"

#include <cassert>
#include <numeric>
#include <utility>

namespace twl {

SyntheticTrace::SyntheticTrace(const SyntheticParams& params,
                               std::string name)
    : params_(params),
      name_(std::move(name)),
      rng_(params.seed ^ 0x57A7'1C7Aull),
      zipf_(params.pages, params.zipf_s),
      rank_to_page_(params.pages) {
  assert(params.pages > 0);
  assert(params.read_frac >= 0.0 && params.read_frac < 1.0);
  assert(params.stream_frac >= 0.0 && params.stream_frac <= 1.0);
  // Scatter Zipf ranks over the address space with a Fisher-Yates shuffle
  // so that the hot set is not a contiguous prefix.
  std::iota(rank_to_page_.begin(), rank_to_page_.end(), 0u);
  XorShift64Star shuffle_rng(params.seed ^ 0x5CA7'7E2Full);
  for (std::uint64_t i = rank_to_page_.size() - 1; i > 0; --i) {
    const std::uint64_t j = shuffle_rng.next_below(i + 1);
    std::swap(rank_to_page_[i], rank_to_page_[j]);
  }
}

LogicalPageAddr RequestSource::next_write() {
  for (;;) {
    const MemoryRequest req = next();
    if (req.op == Op::kWrite) return req.addr;
  }
}

MemoryRequest SyntheticTrace::draw(bool map_reads) {
  // Reads follow the same locality as writes.
  const Op op =
      rng_.next_double() < params_.read_frac ? Op::kRead : Op::kWrite;
  if (rng_.next_double() < params_.stream_frac) {
    if (++stream_pos_ == params_.pages) stream_pos_ = 0;
    return {op, LogicalPageAddr(static_cast<std::uint32_t>(stream_pos_))};
  }
  const double u = rng_.next_double();
  if (op == Op::kRead && !map_reads) return {op, LogicalPageAddr(0)};
  return {op, LogicalPageAddr(rank_to_page_[zipf_.rank_of(u)])};
}

MemoryRequest SyntheticTrace::next() { return draw(/*map_reads=*/true); }

LogicalPageAddr SyntheticTrace::next_write() {
  for (;;) {
    const MemoryRequest req = draw(/*map_reads=*/false);
    if (req.op == Op::kWrite) return req.addr;
  }
}

UniformTrace::UniformTrace(std::uint64_t pages, double read_frac,
                           std::uint64_t seed)
    : pages_(pages), read_frac_(read_frac), rng_(seed ^ 0x0211F02Full) {
  assert(pages > 0);
}

MemoryRequest UniformTrace::next() {
  MemoryRequest req;
  req.op = rng_.next_double() < read_frac_ ? Op::kRead : Op::kWrite;
  req.addr =
      LogicalPageAddr(static_cast<std::uint32_t>(rng_.next_below(pages_)));
  return req;
}

}  // namespace twl
