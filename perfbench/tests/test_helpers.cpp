// Tests of the benchmark's percentile and span helpers.  Built as
// perfbench_selftest; run.py runs it before every workload and refuses
// to report if it fails.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helper must sort
}

void test_percentile_support() {
  using perfbench::percentile;
  // p50 needs 20 samples: rank 10, ten beyond.
  auto p = percentile(one_to(20), 0.5);
  expect(p.supported && p.value == 10.0 && p.beyond == 10 && p.n == 20,
         "p50 of 1..20 is 10 with ten beyond");
  p = percentile(one_to(19), 0.5);
  expect(!p.supported && p.n == 19 && p.beyond == 9,
         "p50 of 19 samples is not supported");
  // p99 needs 1000 samples.
  p = percentile(one_to(1000), 0.99);
  expect(p.supported && p.value == 990.0 && p.beyond == 10,
         "p99 of 1..1000 is 990 with ten beyond");
  p = percentile(one_to(999), 0.99);
  expect(!p.supported && p.n == 999, "p99 of 999 samples is not supported");
  // p90 needs 100.
  p = percentile(one_to(100), 0.9);
  expect(p.supported && p.value == 90.0, "p90 of 1..100 is 90");
  // Misses (+inf) sort last and push the tail percentile to +inf.
  std::vector<double> v = one_to(1000);
  for (int i = 0; i < 11; ++i) {
    v[static_cast<std::size_t>(i)] = std::numeric_limits<double>::infinity();
  }
  p = percentile(v, 0.99);
  expect(std::isinf(p.value), "eleven misses put p99 at +inf");
  expect(percentile({}, 0.5).n == 0 && !percentile({}, 0.5).supported,
         "empty sample");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

perfbench::Span span(const char* name, std::int64_t a, std::int64_t b,
                     std::int64_t parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void test_self_time() {
  using perfbench::self_times_ns;
  // root [0,100) > child [10,40) > grandchild [20,30); sibling [50,70).
  const std::vector<perfbench::Span> nested{
      span("root", 0, 100, -1), span("child", 10, 40, 0),
      span("grand", 20, 30, 1), span("sib", 50, 70, 0)};
  const auto self = self_times_ns(nested);
  expect(self[0] == 100 - 30 - 20, "root self excludes both children");
  expect(self[1] == 30 - 10, "child self excludes the grandchild only");
  expect(self[2] == 10 && self[3] == 20, "leaves keep their duration");

  // Overlapping siblings (two pool threads) count their union once, and
  // a child sticking out of its parent is clipped.
  const std::vector<perfbench::Span> parallel{
      span("phase", 0, 100, -1), span("cell", 0, 60, 0),
      span("cell", 20, 80, 0), span("late", 90, 130, 0)};
  const auto ps = self_times_ns(parallel);
  expect(ps[0] == 100 - 80 - 10, "union of overlapping siblings");
  const auto by_name = perfbench::self_seconds_by_name(parallel);
  expect(std::abs(by_name.at("cell") - 120e-9) < 1e-15,
         "self time sums per name");

  // A disabled tracer records nothing; an enabled one nests by index.
  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope s(off, "x"); }
  expect(off.spans().empty(), "disabled tracer stays empty");
  perfbench::Tracer on(true);
  {
    perfbench::Tracer::Scope outer(on, "outer", -1, 7);
    perfbench::Tracer::Scope inner(on, "inner", outer.index(), 7);
  }
  const auto spans = on.spans();
  expect(spans.size() == 2 && spans[1].parent == 0 && spans[1].group == 7 &&
             spans[0].end_ns >= spans[1].end_ns,
         "scopes record parent, group and nesting");
}

}  // namespace

int main() {
  test_percentile_support();
  test_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
