#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

int SpanRecorder::add(std::uint32_t name, int parent, std::int64_t start_ns,
                      std::int64_t end_ns) {
  spans_.push_back(Span{name, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::write_tsv(std::ostream& out) const {
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << names_[s.name] << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                             s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [a0, b0] : iv) {
      const std::int64_t a = std::max(a0, lo);
      const std::int64_t b = std::min(b0, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

LayerTimes layer_times(const SpanRecorder& rec, int root) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<char> in_tree(spans.size(), 0);
  const auto r = static_cast<std::size_t>(root);
  in_tree[r] = 1;
  // Parents precede their children in recording order.
  for (std::size_t i = r + 1; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    in_tree[i] = p >= 0 && in_tree[static_cast<std::size_t>(p)];
  }
  LayerTimes out;
  out.total_ns = static_cast<double>(spans[r].end_ns - spans[r].start_ns);
  out.unattributed_ns = static_cast<double>(self[r]);
  for (std::size_t i = r + 1; i < spans.size(); ++i) {
    if (in_tree[i]) {
      out.self_ns[rec.names()[spans[i].name]] +=
          static_cast<double>(self[i]);
    }
  }
  return out;
}

}  // namespace perfbench
