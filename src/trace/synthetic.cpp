#include "trace/synthetic.h"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace twl {

namespace {

constexpr std::uint64_t kMaxPages = std::uint64_t{1} << 32;

/// Throws std::invalid_argument naming `field` unless `pages` lies in
/// [1, 2^32]: page addresses are 32 bits wide.
void require_pages(const char* field, std::uint64_t pages) {
  if (pages == 0 || pages > kMaxPages) {
    throw std::invalid_argument(std::string(field) +
                                " must lie in [1, 2^32], got " +
                                std::to_string(pages));
  }
}

/// Throws std::invalid_argument naming `field` unless `p` lies in [0, 1)
/// (in [0, 1] with `one_allowed`). NaN fails both.
void require_fraction(const char* field, double p, bool one_allowed) {
  if (!(p >= 0.0 && (one_allowed ? p <= 1.0 : p < 1.0))) {
    throw std::invalid_argument(std::string(field) + " must lie in [0, 1" +
                                (one_allowed ? "]" : ")") + ", got " +
                                std::to_string(p));
  }
}

const SyntheticParams& validated(const SyntheticParams& p) {
  require_pages("SyntheticParams.pages", p.pages);
  // read_frac = 1 would leave next_write() no write to find.
  require_fraction("SyntheticParams.read_frac", p.read_frac, false);
  require_fraction("SyntheticParams.stream_frac", p.stream_frac, true);
  if (!std::isfinite(p.zipf_s)) {
    throw std::invalid_argument("SyntheticParams.zipf_s must be finite, got " +
                                std::to_string(p.zipf_s));
  }
  return p;
}

}  // namespace

SyntheticTrace::SyntheticTrace(const SyntheticParams& params,
                               std::string name)
    : params_(validated(params)),
      name_(std::move(name)),
      read_below_(XorShift64Star::u53_below(params.read_frac)),
      stream_below_(XorShift64Star::u53_below(params.stream_frac)),
      rng_(params.seed ^ 0x57A7'1C7Aull),
      zipf_(params.pages, params.zipf_s),
      rank_to_page_(params.pages) {
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
  if (!has_writes()) {
    throw std::runtime_error("request source has no write records: " +
                             name());
  }
  for (;;) {
    const MemoryRequest req = next();
    if (req.op == Op::kWrite) return req.addr;
  }
}

MemoryRequest SyntheticTrace::draw() {
  // Reads follow the same locality as writes.
  const Op op = rng_.next_u53() < read_below_ ? Op::kRead : Op::kWrite;
  if (rng_.next_u53() < stream_below_) {
    if (++stream_pos_ == params_.pages) stream_pos_ = 0;
    return {op, LogicalPageAddr(static_cast<std::uint32_t>(stream_pos_))};
  }
  return {op, LogicalPageAddr(rank_to_page_[zipf_.rank_of(rng_.next_u53())])};
}

MemoryRequest SyntheticTrace::next() {
  if (head_ != kBlockWrites) rewind();
  return draw();
}

LogicalPageAddr SyntheticTrace::next_write() {
  if (head_ == kBlockWrites) refill();
  return LogicalPageAddr(block_[head_++]);
}

void SyntheticTrace::refill() {
  block_state_ = rng_.state();
  block_stream_pos_ = stream_pos_;
  std::uint64_t state = block_state_;
  std::uint64_t pos = stream_pos_;
  // The Zipf writes' draws and their slots in block_, for the second
  // loop to map.
  std::array<std::uint64_t, kBlockWrites> zipf_draw{};
  std::array<std::uint32_t, kBlockWrites> zipf_slot{};
  std::size_t w = 0;
  std::size_t z = 0;
  // Every request steps the state three times: the read coin, the stream
  // coin and a Zipf draw, which a streaming request then gives back.
  while (w < kBlockWrites) {
    const bool reads = XorShift64Star::step(state) >> 11 < read_below_;
    const bool streams = XorShift64Star::step(state) >> 11 < stream_below_;
    const std::uint64_t before_zipf = state;
    const std::uint64_t u = XorShift64Star::step(state) >> 11;
    state = streams ? before_zipf : state;
    pos += streams;
    pos = pos == params_.pages ? 0 : pos;
    // A streaming write's page; a Zipf write's is filled in below.
    block_[w] = static_cast<std::uint32_t>(pos);
    zipf_draw[z] = u;
    zipf_slot[z] = static_cast<std::uint32_t>(w);
    z += !reads & !streams;
    w += !reads;
  }
  rng_.set_state(state);
  stream_pos_ = pos;
  for (std::size_t j = 0; j < z; ++j) {
    block_[zipf_slot[j]] = rank_to_page_[zipf_.rank_of(zipf_draw[j])];
  }
  head_ = 0;
}

void SyntheticTrace::rewind() {
  const std::size_t handed_out = head_;
  rng_.set_state(block_state_);
  stream_pos_ = block_stream_pos_;
  head_ = kBlockWrites;
  for (std::size_t w = 0; w < handed_out;) {
    if (draw().op == Op::kWrite) ++w;
  }
}

UniformTrace::UniformTrace(std::uint64_t pages, double read_frac,
                           std::uint64_t seed)
    : pages_(pages), read_frac_(read_frac), rng_(seed ^ 0x0211F02Full) {
  require_pages("UniformTrace pages", pages);
  require_fraction("UniformTrace read_frac", read_frac, false);
}

MemoryRequest UniformTrace::next() {
  MemoryRequest req;
  req.op = rng_.next_double() < read_frac_ ? Op::kRead : Op::kWrite;
  req.addr =
      LogicalPageAddr(static_cast<std::uint32_t>(rng_.next_below(pages_)));
  return req;
}

}  // namespace twl
