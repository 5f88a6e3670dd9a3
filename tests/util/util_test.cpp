#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <vector>

#include "gapsched/parallel/thread_pool.hpp"
#include "gapsched/util/prng.hpp"
#include "gapsched/util/stopwatch.hpp"
#include "gapsched/util/table.hpp"

namespace gapsched {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
  }
}

TEST(Prng, RespectsBounds) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, IndexCoversRange) {
  Prng rng(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.index(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Prng, ForkDecorrelates) {
  Prng parent(1);
  Prng c1 = parent.fork();
  Prng c2 = parent.fork();
  EXPECT_NE(c1.seed(), c2.seed());
}

TEST(Prng, ShufflePermutes) {
  Prng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Stopwatch, MeasuresNonNegative) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.millis(), 0.0);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::int64_t{12});
  t.row().add("b").add(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().add(1).add(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(ThreadPool, RunsAllTasks) {
  // More helpers than work, and the other way round: every index runs once.
  for (const std::size_t n : {1u, 3u, 100u}) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    parallel_for(pool, n, [&count](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), static_cast<int>(n));
  }
}

TEST(ThreadPool, ParallelForCoversIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(pool, 64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  // Joining an empty batch on a pool that never ran anything returns at
  // once: there is nothing to wait for.
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { ADD_FAILURE(); });
  SUCCEED();
}

TEST(ThreadPool, NestedParallelForOnTheSamePoolCoversEveryIndex) {
  // A body that fans out again on its own pool: the inner call joins only
  // its own indices, which its caller can run alone, so this finishes even
  // when every helper is busy in an outer index (a whole-pool wait would
  // hang here).
  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << threads << " thread(s)");
    ThreadPool pool(threads);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 5;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallel_for(pool, kOuter, [&](std::size_t i) {
      parallel_for(pool, kInner, [&](std::size_t j) {
        hits[i * kInner + j].fetch_add(1);
      });
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace gapsched
