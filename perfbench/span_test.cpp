// Unit test of the benchmark's span accounting (spans.h).
//
// Self time must equal duration minus the union of the direct children's
// intervals — nested and overlapping children counted once, children
// clipped to the parent — and per-layer self times plus the unattributed
// time must add up to the traced total. Exits non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "spans.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "span_test: FAILED: %s\n", what);
    ++failures;
  }
}

void test_union_of_children() {
  perfbench::SpanRecorder rec;
  const auto root = rec.intern("root");
  const auto kid = rec.intern("kid");
  const auto grandkid = rec.intern("grandkid");
  const int p = rec.add(root, -1, 0, 100);
  const int a = rec.add(kid, p, 10, 40);
  rec.add(kid, p, 30, 60);         // overlaps a
  rec.add(kid, p, 50, 55);         // nested inside the previous sibling
  rec.add(kid, p, 90, 120);        // runs past the parent: clipped to 100
  rec.add(kid, p, 150, 160);       // wholly outside the parent: ignored
  rec.add(grandkid, a, 15, 25);    // a's child, not p's
  rec.add(grandkid, a, 20, 30);    // overlaps its sibling
  const auto self = perfbench::self_times(rec.spans());
  // Union of p's children inside [0,100]: [10,60] + [90,100] = 60.
  check(self[static_cast<std::size_t>(p)] == 40, "parent self = 100 - 60");
  // a = [10,40]; its children cover [15,30] once = 15.
  check(self[static_cast<std::size_t>(a)] == 15, "child self = 30 - 15");
  check(self[2] == 30 && self[3] == 5, "leaf self = duration");
}

void test_layers_sum_to_total() {
  perfbench::SpanRecorder rec;
  const auto run = rec.intern("run");
  const auto ctl = rec.intern("controller");
  const auto wl = rec.intern("wl");
  const auto dev = rec.intern("device");
  const int r = rec.add(run, -1, 1000, 2000);
  const int c1 = rec.add(ctl, r, 1010, 1400);
  const int w1 = rec.add(wl, c1, 1020, 1300);
  rec.add(dev, w1, 1030, 1100);
  rec.add(dev, w1, 1150, 1160);
  const int c2 = rec.add(ctl, r, 1500, 1990);
  rec.add(wl, c2, 1600, 1601);
  const perfbench::LayerTimes lt = perfbench::layer_times(rec, r);
  double sum = lt.unattributed_ns;
  for (const auto& [name, ns] : lt.self_ns) sum += ns;
  check(std::fabs(sum - lt.total_ns) < 1e-9, "layers + unattributed = total");
  check(lt.total_ns == 1000, "total = root duration");
  check(lt.self_ns.at("device") == 80, "device self");
  check(lt.self_ns.at("wl") == 280 - 80 + 1, "wl self");
  check(lt.self_ns.at("controller") == 390 - 280 + 490 - 1,
        "controller self");
  check(lt.unattributed_ns == 1000 - 390 - 490, "root self");
}

void test_recorder_nesting() {
  perfbench::SpanRecorder rec;
  const auto outer = rec.intern("outer");
  const auto inner = rec.intern("inner");
  check(rec.intern("outer") == outer, "intern is stable");
  const int o = rec.open(outer);
  const int i1 = rec.open(inner);
  rec.close(i1);
  const int i2 = rec.open(inner);
  rec.close(i2);
  rec.close(o);
  check(rec.balanced(), "every span closed");
  const auto& s = rec.spans();
  check(s[1].parent == o && s[2].parent == o, "children point at parent");
  check(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns &&
            s[2].end_ns <= s[0].end_ns,
        "recorded intervals nest in order");
  const perfbench::LayerTimes lt = perfbench::layer_times(rec, o);
  check(lt.self_ns.at("inner") + lt.unattributed_ns == lt.total_ns,
        "recorded tree sums to its root");
}

}  // namespace

int main() {
  test_union_of_children();
  test_layers_sum_to_total();
  test_recorder_nesting();
  if (failures == 0) std::fprintf(stderr, "span_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
