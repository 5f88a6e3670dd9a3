#include "gapsched/core/transforms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

TEST(CompressDeadTime, ShrinksDesertsToOneUnit) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(100, 102)});
  inst.jobs.push_back(Job{TimeSet::window(5000, 5001)});
  CompressedInstance c = compress_dead_time(inst);
  // New layout: [0,2], dead unit 3, [4,5].
  EXPECT_EQ(c.instance.jobs[0].allowed, TimeSet::window(0, 2));
  EXPECT_EQ(c.instance.jobs[1].allowed, TimeSet::window(4, 5));
}

TEST(CompressDeadTime, TimeMapsRoundTrip) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet({{10, 12}, {90, 91}})});
  CompressedInstance c = compress_dead_time(inst);
  for (Time t : {10, 11, 12, 90, 91}) {
    EXPECT_EQ(c.to_original(c.to_compressed(t)), t);
  }
}

TEST(CompressDeadTime, AdjacentJobsStayAdjacent) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(7, 8)});
  inst.jobs.push_back(Job{TimeSet::window(9, 10)});
  CompressedInstance c = compress_dead_time(inst);
  // Touching windows are one live region: [0,1] and [2,3].
  EXPECT_EQ(c.instance.jobs[0].allowed, TimeSet::window(0, 1));
  EXPECT_EQ(c.instance.jobs[1].allowed, TimeSet::window(2, 3));
}

TEST(CompressDeadTime, EmptyInstance) {
  Instance inst;
  CompressedInstance c = compress_dead_time(inst);
  EXPECT_EQ(c.instance.n(), 0u);
}

// Property: compression preserves the optimal transition count exactly.
class CompressionPreservesGaps : public ::testing::TestWithParam<int> {};

TEST_P(CompressionPreservesGaps, OptimaMatch) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 211 + 17);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  // Sparse instances with real deserts.
  Instance inst;
  inst.processors = 1 + static_cast<int>(rng.index(2));
  const std::size_t n = 5 + rng.index(3);
  for (std::size_t j = 0; j < n; ++j) {
    const Time base = rng.uniform(0, 6) * 100;
    const Time lo = base + rng.uniform(0, 5);
    inst.jobs.push_back(Job{TimeSet::window(lo, lo + rng.uniform(0, 4))});
  }
  CompressedInstance c = compress_dead_time(inst);
  c.instance.processors = inst.processors;
  const ExactGapResult a = brute_force_min_transitions(inst);
  const ExactGapResult b = brute_force_min_transitions(c.instance);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_EQ(a.transitions, b.transitions);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CompressionPreservesGaps,
                         ::testing::Range(0, 30));

// ------------------------------------------------- length-aware capping --

TEST(CompressDeadTimeCapped, TruncatesRunsAtTheCapOnly) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(0, 1)});    // run of 2 follows
  inst.jobs.push_back(Job{TimeSet::window(4, 5)});    // run of 10 follows
  inst.jobs.push_back(Job{TimeSet::window(16, 17)});
  const CompressedInstance c = compress_dead_time_capped(inst, 4);
  // Layout: [0,1], dead 2 (under the cap, kept), [4,5], dead min(10,4)=4,
  // [10,11].
  EXPECT_EQ(c.instance.jobs[0].allowed, TimeSet::window(0, 1));
  EXPECT_EQ(c.instance.jobs[1].allowed, TimeSet::window(4, 5));
  EXPECT_EQ(c.instance.jobs[2].allowed, TimeSet::window(10, 11));
  EXPECT_EQ(c.dead_time_removed(), 6);
  for (Time t : {0, 1, 4, 5, 16, 17}) {
    EXPECT_EQ(c.to_original(c.to_compressed(t)), t);
  }
}

TEST(CompressDeadTimeCapped, CapOneIsPlainCompression) {
  Prng rng(testing::seed_for(815));
  const Instance inst = gen_uniform_one_interval(rng, 7, 400, 4);
  const CompressedInstance one = compress_dead_time(inst);
  const CompressedInstance capped = compress_dead_time_capped(inst, 1);
  ASSERT_EQ(one.instance.n(), capped.instance.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(one.instance.jobs[j].allowed, capped.instance.jobs[j].allowed);
  }
}

TEST(CompressDeadTimeCapped, AlreadyCompactInstancesAreUntouched) {
  const Instance inst = Instance::one_interval({{0, 2}, {4, 6}, {9, 10}});
  const CompressedInstance c = compress_dead_time_capped(inst, 3);
  EXPECT_EQ(c.dead_time_removed(), 0);
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(c.instance.jobs[j].allowed, inst.jobs[j].allowed);
  }
}

// Property: with cap = ceil(alpha) + 1 the power optimum is exactly
// preserved; the tier-1 sample here is small — the >=500-instance-per-family
// sweep with shrinking lives in tests/fuzz.
class CappedCompressionPreservesPower : public ::testing::TestWithParam<int> {
};

TEST_P(CappedCompressionPreservesPower, OptimaMatch) {
  const std::uint64_t prng_seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 223 + 19);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  const double alpha = 0.5 * static_cast<double>(rng.uniform(0, 10));
  const Time cap = static_cast<Time>(std::ceil(alpha)) + 1;
  Instance inst;
  const std::size_t n = 4 + rng.index(3);
  for (std::size_t j = 0; j < n; ++j) {
    const Time base = rng.uniform(0, 5) * 9;  // deserts straddling alpha
    const Time lo = base + rng.uniform(0, 4);
    inst.jobs.push_back(Job{TimeSet::window(lo, lo + rng.uniform(0, 3))});
  }
  const CompressedInstance c = compress_dead_time_capped(inst, cap);
  const ExactPowerResult a = brute_force_min_power(inst, alpha);
  const ExactPowerResult b = brute_force_min_power(c.instance, alpha);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_NEAR(a.power, b.power, 1e-9 * std::max(1.0, a.power))
        << "alpha " << alpha << ", cap " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CappedCompressionPreservesPower,
                         ::testing::Range(0, 30));

// ------------------------------------------------- reference parity --
// compress_dead_time_capped normalizes all job intervals once and maps
// times by binary search. The reference below is the plain definition: the
// live union grown one job at a time and time maps that scan every live
// interval. Both must agree on every job, every map and the removed time.

struct ReferenceCompression {
  std::vector<Interval> original;
  std::vector<Interval> compressed;
  std::vector<TimeSet> jobs;
};

Time reference_map(const std::vector<Interval>& from,
                   const std::vector<Interval>& to, Time t) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i].contains(t)) return to[i].lo + (t - from[i].lo);
  }
  ADD_FAILURE() << "time " << t << " is in no live interval";
  return t;
}

ReferenceCompression reference_compress(const Instance& inst, Time cap) {
  TimeSet live;
  for (const Job& j : inst.jobs) live = live.unite(j.allowed);
  ReferenceCompression ref;
  Time cursor = 0;
  for (const Interval& iv : live.intervals()) {
    if (!ref.original.empty()) {
      cursor += std::min<Time>(iv.lo - ref.original.back().hi - 1, cap);
    }
    ref.original.push_back(iv);
    ref.compressed.push_back({cursor, cursor + iv.length() - 1});
    cursor += iv.length();
  }
  for (const Job& j : inst.jobs) {
    std::vector<Interval> mapped;
    for (const Interval& iv : j.allowed.intervals()) {
      const Time lo = reference_map(ref.original, ref.compressed, iv.lo);
      mapped.push_back({lo, lo + iv.length() - 1});
    }
    ref.jobs.push_back(TimeSet(std::move(mapped)));
  }
  return ref;
}

void expect_reference_parity(const Instance& inst, Time cap) {
  SCOPED_TRACE("cap " + std::to_string(cap));
  const CompressedInstance c = compress_dead_time_capped(inst, cap);
  const ReferenceCompression ref = reference_compress(inst, cap);
  ASSERT_EQ(c.original_intervals, ref.original);
  ASSERT_EQ(c.compressed_intervals, ref.compressed);
  ASSERT_EQ(c.instance.n(), inst.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(c.instance.jobs[j].allowed, ref.jobs[j]) << "job " << j;
  }
  EXPECT_EQ(c.dead_time_removed(),
            (ref.original.back().hi - ref.original.front().lo) -
                (ref.compressed.back().hi - ref.compressed.front().lo));
  for (const Interval& iv : ref.original) {
    for (Time t = iv.lo; t <= iv.hi; ++t) {
      const Time mapped = c.to_compressed(t);
      ASSERT_EQ(mapped, reference_map(ref.original, ref.compressed, t));
      ASSERT_EQ(c.to_original(mapped), t);
    }
  }
}

TEST(CompressDeadTimeCapped, MatchesTheReferenceOnPolyScale2000) {
  const std::optional<Instance> inst =
      scenarios::make_scenario("poly_scale:2000", 7);
  ASSERT_TRUE(inst.has_value());
  for (Time cap : {1, 2, 4}) expect_reference_parity(*inst, cap);
}

TEST(CompressDeadTimeCapped, MatchesTheReferenceOnMultiIntervalInstances) {
  for (std::uint64_t site = 0; site < 20; ++site) {
    const std::uint64_t prng_seed = testing::seed_for(9100 + site);
    GAPSCHED_TRACE_SEED(prng_seed);
    Prng rng(prng_seed);
    const Instance inst = gen_multi_interval(
        rng, 5 + rng.index(20), 200 + rng.uniform(0, 800), 1 + rng.index(4),
        1 + rng.uniform(0, 6));
    for (Time cap : {1, 2, 4}) expect_reference_parity(inst, cap);
  }
}

// -------------------------------------------------------- dead-run stretch --

TEST(StretchDeadTime, DilatesLongRunsAndKeepsShortOnes) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(3, 4)});    // run of 2 follows
  inst.jobs.push_back(Job{TimeSet::window(7, 8)});    // run of 5 follows
  inst.jobs.push_back(Job{TimeSet::window(14, 15)});
  const Instance wide = stretch_dead_time(inst, 3, 4);
  // Origin kept; run of 2 (< min_run 4) kept; run of 5 -> 15.
  EXPECT_EQ(wide.jobs[0].allowed, TimeSet::window(3, 4));
  EXPECT_EQ(wide.jobs[1].allowed, TimeSet::window(7, 8));
  EXPECT_EQ(wide.jobs[2].allowed, TimeSet::window(24, 25));
}

TEST(StretchDeadTime, FactorOneIsIdentity) {
  Prng rng(testing::seed_for(816));
  const Instance inst = gen_uniform_one_interval(rng, 8, 300, 5);
  const Instance same = stretch_dead_time(inst, 1, 1);
  ASSERT_EQ(same.n(), inst.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(same.jobs[j].allowed, inst.jobs[j].allowed);
  }
}

TEST(StretchDeadTime, CappedCompressionNormalizesStretchedCopies) {
  // The tentpole's cache-normalization property at the transform level:
  // stretching dead runs at or above the cap and then compressing with
  // that cap lands on the same instance the unstretched original
  // compresses to.
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(0, 2)});
  inst.jobs.push_back(Job{TimeSet::window(9, 10)});   // run of 6
  inst.jobs.push_back(Job{TimeSet::window(30, 32)});  // run of 19
  const Time cap = 4;
  const Instance wide = stretch_dead_time(inst, 7, cap);
  const CompressedInstance a = compress_dead_time_capped(inst, cap);
  const CompressedInstance b = compress_dead_time_capped(wide, cap);
  ASSERT_EQ(a.instance.n(), b.instance.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(a.instance.jobs[j].allowed, b.instance.jobs[j].allowed);
  }
  EXPECT_GT(b.dead_time_removed(), a.dead_time_removed());
}

}  // namespace
}  // namespace gapsched
