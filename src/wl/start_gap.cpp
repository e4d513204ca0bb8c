#include "wl/start_gap.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "recovery/snapshot.h"

namespace twl {

StartGap::StartGap(std::uint64_t frames, const StartGapParams& params)
    : frames_(frames), psi_(params.gap_write_interval), gap_(frames - 1) {
  assert(frames_ >= 2);
  assert(psi_ > 0);
  // PhysicalPageAddr is 32-bit: a larger device would silently truncate
  // frame numbers at the map_read cast and alias distinct pages.
  if (frames_ > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "StartGap: " + std::to_string(frames_) +
        " frames exceeds the 32-bit physical address space");
  }
}

PhysicalPageAddr StartGap::map_read(LogicalPageAddr la) const {
  const std::uint64_t n = logical_pages();
  assert(la.value() < n);
  std::uint64_t pa = (la.value() + start_) % n;
  if (pa >= gap_) ++pa;
  return PhysicalPageAddr(static_cast<std::uint32_t>(pa));
}

void StartGap::move_gap(WriteSink& sink) {
  if (gap_ > 0) {
    // Pull the page below the gap up into the gap frame.
    sink.migrate(PhysicalPageAddr(static_cast<std::uint32_t>(gap_ - 1)),
                 PhysicalPageAddr(static_cast<std::uint32_t>(gap_)),
                 WritePurpose::kGapMove);
    --gap_;
  } else {
    // Gap wrapped: the last frame's page moves into frame 0, the gap
    // returns to the top, and Start advances one step.
    sink.migrate(PhysicalPageAddr(static_cast<std::uint32_t>(frames_ - 1)),
                 PhysicalPageAddr(0), WritePurpose::kGapMove);
    gap_ = frames_ - 1;
    start_ = (start_ + 1) % logical_pages();
  }
  ++gap_moves_;
}

void StartGap::write(LogicalPageAddr la, WriteSink& sink) {
  if (++writes_since_move_ >= psi_) {
    writes_since_move_ = 0;
    move_gap(sink);
  }
  sink.demand_write(map_read(la), la);
}

bool StartGap::invariants_hold() const {
  // The mapping must be injective into the non-gap frames.
  std::vector<bool> used(frames_, false);
  for (std::uint32_t la = 0; la < logical_pages(); ++la) {
    const std::uint32_t pa = map_read(LogicalPageAddr(la)).value();
    if (pa >= frames_ || pa == gap_ || used[pa]) return false;
    used[pa] = true;
  }
  return true;
}

void StartGap::save_state(SnapshotWriter& w) const {
  w.put_u64(frames_);
  w.put_u64(gap_);
  w.put_u64(start_);
  w.put_u32(writes_since_move_);
  w.put_u64(gap_moves_);
}

void StartGap::load_state(SnapshotReader& r) {
  r.expect_u64(frames_, "start_gap.frames");
  gap_ = r.get_u64();
  start_ = r.get_u64();
  writes_since_move_ = r.get_u32();
  gap_moves_ = r.get_u64();
  if (gap_ >= frames_ || start_ >= logical_pages()) {
    throw SnapshotError("start-gap registers out of range");
  }
}

void StartGap::append_stats(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("gap_moves", static_cast<double>(gap_moves_));
  out.emplace_back("start", static_cast<double>(start_));
}

}  // namespace twl
