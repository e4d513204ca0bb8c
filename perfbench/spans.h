// Spans for the benchmark's traced runs.
//
// A span is (name, start, end, parent). The traced runs open spans in
// the benchmark's own code around calls into the program's modules,
// keep every span in memory and write them out when the run ends. A
// span's self time is its duration minus the part of its interval that
// its direct children cover; children that nest or overlap are counted
// once (the union of their intervals, clipped to the parent).
//
// One steady_clock read costs tens of nanoseconds, about as much as one
// simulated controller write, so traced runs open spans around blocks of
// calls, never around a single call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;   ///< Index into SpanRecorder::names().
  std::int32_t parent = -1;  ///< Index of the parent span; -1 for a root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Id of `name`, registering it on first use.
  std::uint32_t intern(std::string_view name);

  /// Opens a span now, as a child of the innermost open span.
  int open(std::uint32_t name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), 0, 0});
    stack_.push_back(id);
    spans_.back().start_ns = now_ns();
    return id;
  }
  /// Closes the innermost open span, which must be `id`, now.
  void close(int id) {
    const std::int64_t t = now_ns();
    spans_[static_cast<std::size_t>(id)].end_ns = t;
    stack_.pop_back();
  }
  /// Records a finished span with explicit times (tests).
  int add(std::uint32_t name, int parent, std::int64_t start_ns,
          std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] bool balanced() const { return stack_.empty(); }

  /// One line per span: index, parent, name, start and end in ns.
  void write_tsv(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> names_;
};

/// Self time of every span: its duration minus the measure of the union
/// of its direct children's intervals, clipped to its own interval.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Per-name self times under one root span.
struct LayerTimes {
  double total_ns = 0;         ///< The root span's duration.
  std::map<std::string, double> self_ns;  ///< Every span but the root.
  /// The root's self time: time the trace cannot place in any layer.
  double unattributed_ns = 0;
};

/// Sums self times by span name over the tree under `root`. The layers
/// plus unattributed_ns sum to total_ns when children stay inside their
/// parents and siblings do not overlap, as recorded spans do.
[[nodiscard]] LayerTimes layer_times(const SpanRecorder& rec, int root);

}  // namespace perfbench
