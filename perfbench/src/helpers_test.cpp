// Tests of the benchmark's pure helpers (stats.hpp): the percentile pick
// with its ten-samples-beyond rule, due-time latency and lateness, backlog
// growth, and span self time. Built and registered with ctest by
// perfbench/CMakeLists.txt; exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "helpers_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_pick() {
  using perfbench::pick_percentile;
  using perfbench::samples_beyond;
  // p99 of 1000 nearest-rank samples is rank 990: exactly ten beyond.
  CHECK(samples_beyond(99.0, 1000) == 10);
  CHECK(near(pick_percentile(99.0, 1000), 99.0));
  // One sample fewer leaves nine beyond p99, so the pick falls back.
  CHECK(samples_beyond(99.0, 999) == 9);
  CHECK(near(pick_percentile(99.0, 999), 98.0));
  CHECK(near(pick_percentile(99.0, 500), 98.0));
  CHECK(near(pick_percentile(99.0, 400), 97.5));
  CHECK(near(pick_percentile(99.0, 100), 90.0));
  // Never above the wanted percentile, however many samples.
  CHECK(near(pick_percentile(99.0, 1000000), 99.0));
  CHECK(near(pick_percentile(50.0, 1000000), 50.0));
  // Too few samples for any tail: the median.
  CHECK(near(pick_percentile(99.0, 5), 50.0));
  CHECK(near(pick_percentile(99.0, 0), 50.0));
  // Every pick leaves at least ten samples beyond it when it can.
  for (std::size_t n = 20; n < 5000; n += 7) {
    const double q = pick_percentile(99.0, n);
    CHECK(samples_beyond(q, n) >= perfbench::kMinBeyond);
  }

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, reversed
  const perfbench::Percentile p = perfbench::percentile(v, 99.0);
  CHECK(p.n == 1000);
  CHECK(near(p.q, 99.0));
  CHECK(near(p.value, 990.0));
  // percentile() sorted v in place: w holds 1..500.
  std::vector<double> w(v.begin(), v.begin() + 500);
  const perfbench::Percentile p2 = perfbench::percentile(w, 99.0);
  CHECK(near(p2.q, 98.0));
  CHECK(near(p2.value, 490.0));
  std::vector<double> empty;
  CHECK(perfbench::percentile(empty, 99.0).n == 0);
}

void windowed() {
  // Three windows of 1000; the middle one holds a stall of 50 slow
  // samples. Its p99 is slow, the median of the three windows is not.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      v.push_back(w == 1 && i < 50 ? 100.0 : 1.0 + i / 1000.0);
    }
  }
  const perfbench::Percentile p = perfbench::windowed_percentile(v, 99.0);
  CHECK(p.n == 3000);
  CHECK(near(p.q, 99.0));
  CHECK(near(p.value, 1.989));
  // The plain p99 of the same samples is the stall.
  std::vector<double> copy = v;
  CHECK(near(perfbench::percentile(copy, 99.0).value, 100.0));
  // Fewer samples than one window: one window, the plain pick.
  std::vector<double> small(v.begin(), v.begin() + 500);
  const perfbench::Percentile s = perfbench::windowed_percentile(small, 99.0);
  CHECK(near(s.q, 98.0));
  CHECK(s.n == 500);
  // An even window count averages the middle two.
  std::vector<double> four;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 1000; ++i) four.push_back(w + 1.0);
  }
  CHECK(near(perfbench::windowed_percentile(four, 99.0).value, 2.5));
}

void due_time_latency() {
  // Due at 1 ms, answered at 4.5 ms: 3.5 ms, whenever it was sent.
  CHECK(near(perfbench::due_latency_ms(1'000'000, 4'500'000), 3.5));
  // Lateness counts only sends after the due time.
  CHECK(near(perfbench::lateness_ms(1'000'000, 1'250'000), 0.25));
  CHECK(near(perfbench::lateness_ms(1'000'000, 900'000), 0.0));
  // A generator stall charges every request due during it: requests due
  // at 0, 1 and 2 ms all sent at 10 ms and answered at 11 ms.
  double sum = 0.0;
  for (std::int64_t due : {0, 1'000'000, 2'000'000}) {
    sum += perfbench::due_latency_ms(due, 11'000'000);
  }
  CHECK(near(sum, 11.0 + 10.0 + 9.0));
}

void backlog_growth() {
  using perfbench::backlog_grows;
  CHECK(!backlog_grows({3, 5, 2, 4, 6, 3, 5, 2, 4}, 8));
  CHECK(backlog_grows({1, 5, 10, 20, 40, 60, 80, 100, 120}, 8));
  // A burst that drains again is not growth.
  CHECK(!backlog_grows({2, 3, 40, 3, 2, 3, 4, 2, 3}, 8));
  CHECK(!backlog_grows({}, 8));
}

void self_time() {
  using perfbench::SpanTimes;
  // root [0,100) with children [10,30) and [20,50) overlapping, and
  // [90,120) sticking out past the root: covered = [10,50) + [90,100).
  std::vector<SpanTimes> spans = {
      {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {90, 120, 0},
      {12, 18, 1},  // grandchild: only its parent loses it
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  // Self times of a tree sum to the root's duration when children nest.
  std::vector<SpanTimes> nested = {{0, 10, -1}, {2, 5, 0}, {5, 9, 0}};
  const std::vector<std::int64_t> s2 = perfbench::self_times(nested);
  CHECK(s2[0] + s2[1] + s2[2] == 10);
}

}  // namespace

int main() {
  percentile_pick();
  windowed();
  due_time_latency();
  backlog_growth();
  self_time();
  if (failures == 0) std::printf("helpers_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
