#include "wl/tossup_wl.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "recovery/snapshot.h"

namespace twl {

TossUpWl::TossUpWl(const EnduranceMap& endurance, const TwlParams& params,
                   const WlLatencies& latencies, std::uint32_t et_entry_bits,
                   std::uint64_t seed)
    : rt_(endurance.pages()),
      et_(endurance, et_entry_bits),
      swpt_(endurance, params.pairing, seed),
      // A 7-bit WCT covers intervals up to 127 (Section 5.4); the Figure 7
      // sweep's interval-128 point and the adaptive mode need the 8th bit.
      wct_(endurance.pages(),
           (params.tossup_interval > 127 ||
            (params.adaptive_interval && params.adaptive_interval_max > 127))
               ? 8
               : 7),
      rng_(seed ^ 0x7055'0B17ULL),
      interpair_rng_(seed ^ 0x1A7E'2137ULL),
      params_(params),
      latencies_(latencies),
      interval_(params.tossup_interval),
      pa_writes_(params.bias == TossBias::kRemainingEndurance
                     ? endurance.pages()
                     : 0,
                 0) {
  // The counter saturates at max_value(), so the interval must reach it
  // at most, or the toss-up would never fire.
  assert(params_.tossup_interval >= 1);
  assert(params_.tossup_interval <= wct_.max_value() &&
         "toss-up interval must fit the WCT");
  assert((!params_.adaptive_interval ||
          params_.adaptive_interval_max <= wct_.max_value()) &&
         "adaptive interval ceiling must fit the WCT");
}

std::string TossUpWl::name() const {
  switch (params_.pairing) {
    case PairingPolicy::kAdjacent:
      return "TWL_ap";
    case PairingPolicy::kStrongWeak:
      return "TWL_swp";
    case PairingPolicy::kRandom:
      return "TWL_rnd";
  }
  return "TWL";
}

double TossUpWl::bias_endurance(PhysicalPageAddr pa) const {
  const auto e = static_cast<double>(et_.endurance(pa));
  if (params_.bias == TossBias::kInitialEndurance) return e;
  const auto worn = static_cast<double>(pa_writes_[pa.value()]);
  return std::max(1.0, e - worn);
}

void TossUpWl::toss_up(LogicalPageAddr la, WriteSink& sink) {
  ++tossups_;
  // The pair bond lives in physical space (see tables/pair_table.h):
  // whichever logical page currently occupies the partner page is the one
  // displaced by a swap.
  const PhysicalPageAddr pa = rt_.to_physical(la);
  const PhysicalPageAddr pa_pair = swpt_.partner(pa);
  const LogicalPageAddr la_pair = rt_.to_logical(pa_pair);
  const double e = bias_endurance(pa);
  const double e_pair = bias_endurance(pa_pair);

  // Figure 5(b): SWPT, RT and ET lookups, then RNG + control logic.
  sink.engine_delay(3 * latencies_.table + latencies_.rng +
                    latencies_.control);

  const double alpha = rng_.next_alpha();
  const bool choose_self = alpha < e / (e + e_pair);
  if (choose_self) {
    sink.demand_write(pa, la);
    if (!pa_writes_.empty()) ++pa_writes_[pa.value()];
    return;
  }

  // Swap judge (Figure 4(c)): Addr_choose != Addr_write.
  ++tossup_swaps_;
  ++window_swaps_;
  if (params_.two_write_swap) {
    // Optimized swap-then-write: the chosen page's old data migrates to
    // the unchosen page, then the demand data is written to the chosen
    // page — 2 writes instead of 3.
    sink.migrate(pa_pair, pa, WritePurpose::kTossupSwap);
    sink.demand_write(pa_pair, la);
    if (!pa_writes_.empty()) {
      ++pa_writes_[pa.value()];
      ++pa_writes_[pa_pair.value()];
    }
  } else {
    // Naive swap-then-write (ablation): exchange the pages, then write.
    sink.swap_pages(pa, pa_pair, WritePurpose::kTossupSwap);
    sink.demand_write(pa_pair, la);
    if (!pa_writes_.empty()) {
      ++pa_writes_[pa.value()];
      pa_writes_[pa_pair.value()] += 2;
    }
  }
  rt_.swap_logical(la, la_pair);
}

void TossUpWl::maybe_adapt_interval() {
  if (!params_.adaptive_interval ||
      demand_writes_ % params_.adaptation_window != 0) {
    return;
  }
  const double ratio = static_cast<double>(window_swaps_) /
                       static_cast<double>(params_.adaptation_window);
  window_swaps_ = 0;
  // Swap ratio scales ~1/interval: double the interval when overhead runs
  // hot, halve it when there is budget for more leveling.
  if (ratio > params_.target_swap_ratio * 1.5 &&
      interval_ < params_.adaptive_interval_max) {
    interval_ = std::min(interval_ * 2, params_.adaptive_interval_max);
    ++interval_adaptations_;
  } else if (ratio < params_.target_swap_ratio / 1.5 && interval_ > 1) {
    interval_ /= 2;
    ++interval_adaptations_;
  }
}

void TossUpWl::write(LogicalPageAddr la, WriteSink& sink) {
  ++demand_writes_;

  // Inter-pair swap: every interval, the written page trades places with
  // a page at a random address, distributing traffic between pairs
  // (Section 4.1).
  if (params_.interpair_swap_interval > 0 &&
      demand_writes_ % params_.interpair_swap_interval == 0) {
    const LogicalPageAddr other(static_cast<std::uint32_t>(
        interpair_rng_.next_below(rt_.pages())));
    if (other != la) {
      const PhysicalPageAddr a = rt_.to_physical(la);
      const PhysicalPageAddr b = rt_.to_physical(other);
      sink.swap_pages(a, b, WritePurpose::kInterPairSwap);
      if (!pa_writes_.empty()) {
        ++pa_writes_[a.value()];
        ++pa_writes_[b.value()];
      }
      rt_.swap_logical(la, other);
      ++interpair_swaps_;
    }
  }

  // Interval-triggered toss-up (Section 4.3): the engine only runs when
  // the page's write counter reaches the interval.
  if (wct_.increment(la) >= interval_) {
    wct_.reset(la);
    toss_up(la, sink);
  } else {
    const PhysicalPageAddr pa = rt_.to_physical(la);
    sink.demand_write(pa, la);
    if (!pa_writes_.empty()) ++pa_writes_[pa.value()];
  }

  maybe_adapt_interval();
}

void TossUpWl::on_page_retired(PhysicalPageAddr pa, PhysicalPageAddr spare,
                               std::uint64_t spare_endurance,
                               WriteSink& sink) {
  (void)spare;  // The controller's indirection hides the device address.
  (void)sink;
  et_.set_endurance(pa, spare_endurance);
  if (!pa_writes_.empty()) pa_writes_[pa.value()] = 0;
  ++retirements_;
}

void TossUpWl::save_state(SnapshotWriter& w) const {
  rt_.save_state(w);
  et_.save_state(w);
  wct_.save_state(w);
  rng_.save_state(w);
  interpair_rng_.save_state(w);
  w.put_u32(interval_);
  w.put_u64_vec(pa_writes_);
  w.put_u64(demand_writes_);
  w.put_u64(tossups_);
  w.put_u64(tossup_swaps_);
  w.put_u64(interpair_swaps_);
  w.put_u64(window_swaps_);
  w.put_u64(interval_adaptations_);
  w.put_u64(retirements_);
}

void TossUpWl::load_state(SnapshotReader& r) {
  rt_.load_state(r);
  et_.load_state(r);
  wct_.load_state(r);
  rng_.load_state(r);
  interpair_rng_.load_state(r);
  interval_ = r.get_u32();
  if (interval_ < 1) throw SnapshotError("twl interval out of range");
  std::vector<WriteCount> pa_writes = r.get_u64_vec();
  if (pa_writes.size() != pa_writes_.size()) {
    throw SnapshotError("twl pa_writes size mismatch");
  }
  pa_writes_ = std::move(pa_writes);
  demand_writes_ = r.get_u64();
  tossups_ = r.get_u64();
  tossup_swaps_ = r.get_u64();
  interpair_swaps_ = r.get_u64();
  window_swaps_ = r.get_u64();
  interval_adaptations_ = r.get_u64();
  retirements_ = r.get_u64();
}

void TossUpWl::append_stats(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("demand_writes", static_cast<double>(demand_writes_));
  out.emplace_back("tossups", static_cast<double>(tossups_));
  out.emplace_back("tossup_swaps", static_cast<double>(tossup_swaps_));
  out.emplace_back("interpair_swaps", static_cast<double>(interpair_swaps_));
  out.emplace_back("interval", static_cast<double>(interval_));
  if (params_.adaptive_interval) {
    out.emplace_back("interval_adaptations",
                     static_cast<double>(interval_adaptations_));
  }
  if (demand_writes_ > 0) {
    out.emplace_back("swap_write_ratio",
                     static_cast<double>(tossup_swaps_) /
                         static_cast<double>(demand_writes_));
  }
  if (retirements_ > 0) {
    out.emplace_back("retirements", static_cast<double>(retirements_));
  }
}

}  // namespace twl
