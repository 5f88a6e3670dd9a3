// Unit suite for the Baptiste-Chrobak-Durr polynomial solver family
// (src/bcd): handcrafted optima for both objectives, randomized parity
// against the subset-DP ground truth at brute-forceable sizes, the
// forwarding contract of the free function solve_baptiste, the shape-guard
// and budget-valve error paths, large-n smoke solves (n = 2000) with
// closed-form optima — the sizes the exponential families cannot touch,
// kept fast enough for tier1 precisely because the DP is polynomial — and
// pinned work counters and schedule digests on fixed poly_scale draws,
// where brute-force parity cannot reach.

#include "gapsched/bcd/bcd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "gapsched/baptiste/baptiste.hpp"
#include "gapsched/core/hash.hpp"
#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

constexpr double kAlpha = 2.5;

// ------------------------------------------------------- handcrafted gap --

TEST(Bcd, EmptyInstanceIsFeasibleWithNoTransitions) {
  const BcdGapResult r = solve_bcd_gap(Instance{});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 0);
}

TEST(Bcd, SingleSpanWhenPackable) {
  const Instance inst = Instance::one_interval({{0, 5}, {0, 5}, {0, 5}});
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
  EXPECT_EQ(r.schedule.validate(inst), "");
}

TEST(Bcd, ForcedGapsCountBlocks) {
  const Instance inst = Instance::one_interval({{0, 0}, {10, 10}, {20, 20}});
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 3);
}

TEST(Bcd, InterleavesLooseJobsBetweenTightOnes) {
  // Tight jobs at 10, 12, 14; the loose pair fills 11 and 13: one span.
  const Instance inst = Instance::one_interval(
      {{10, 10}, {12, 12}, {14, 14}, {0, 20}, {0, 20}});
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
}

TEST(Bcd, Infeasible) {
  const Instance inst = Instance::one_interval({{0, 0}, {0, 0}});
  const BcdGapResult r = solve_bcd_gap(inst);
  EXPECT_TRUE(r.error.empty());
  EXPECT_FALSE(r.feasible);
}

TEST(Bcd, IgnoresProcessorCount) {
  const Instance inst =
      Instance::one_interval({{0, 1}, {0, 1}}, /*processors=*/4);
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);  // solved as p = 1
}

// ----------------------------------------------------- handcrafted power --

TEST(Bcd, PowerPacksIntoOneBlock) {
  const Instance inst = Instance::one_interval({{0, 5}, {0, 5}, {0, 5}});
  const BcdPowerResult r = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0 + kAlpha);  // n active slots + one wake-up
}

TEST(Bcd, PowerBridgesShortGapAndSleepsLongGap) {
  // Slots 0, 2, 10 are forced: the 1-slot gap is bridged (cost 1 < alpha),
  // the 7-slot gap sleeps (cost alpha).
  const Instance inst = Instance::one_interval({{0, 0}, {2, 2}, {10, 10}});
  const BcdPowerResult r = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0 + kAlpha + 1.0 + kAlpha);
}

TEST(Bcd, PowerZeroAlphaChargesActiveTimeOnly) {
  const Instance inst = Instance::one_interval({{0, 0}, {5, 9}, {20, 20}});
  const BcdPowerResult r = solve_bcd_power(inst, 0.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0);  // gaps are free at alpha = 0
}

TEST(Bcd, PowerDelaysAJobToMergeGaps) {
  // The loose job can run anywhere in [0, 10]; parking it adjacent to one
  // of the tight jobs beats opening a third block. Optimum: blocks {0} and
  // {9, 10} (or {0, 1} and {10}), one interior gap of 8 -> alpha.
  const Instance inst = Instance::one_interval({{0, 0}, {10, 10}, {0, 10}});
  const BcdPowerResult r = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0 + kAlpha + kAlpha);
  const oracle::ScheduleAudit audit = oracle::audit_schedule(inst, r.schedule);
  ASSERT_TRUE(audit.valid && audit.complete);
  EXPECT_NEAR(oracle::min_power(audit, kAlpha), r.power, 1e-9);
}

// ----------------------------------------------------------- error paths --

TEST(Bcd, RejectsMultiIntervalJobs) {
  Instance inst;
  inst.processors = 1;
  inst.jobs.push_back(Job{TimeSet::points({0, 5})});
  const BcdGapResult g = solve_bcd_gap(inst);
  EXPECT_FALSE(g.error.empty());
  const BcdPowerResult p = solve_bcd_power(inst, kAlpha);
  EXPECT_FALSE(p.error.empty());
}

TEST(Bcd, RejectsAbsurdAlpha) {
  const Instance inst = Instance::one_interval({{0, 1}});
  EXPECT_FALSE(solve_bcd_power(inst, 1e18).error.empty());
}

TEST(Bcd, StateBudgetValveRejectsInsteadOfAnswering) {
  const Instance inst =
      Instance::one_interval({{0, 3}, {1, 4}, {2, 5}, {3, 6}});
  bcd::BcdOptions opts;
  opts.max_states = 1;
  const BcdGapResult r = solve_bcd_gap(inst, opts);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(r.feasible);
}

TEST(Bcd, EntryBudgetValveRejectsInsteadOfAnswering) {
  const Instance inst =
      Instance::one_interval({{0, 30}, {5, 35}, {10, 40}, {15, 45}});
  bcd::BcdOptions opts;
  opts.max_entries = 4;
  const BcdGapResult r = solve_bcd_gap(inst, opts);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(r.feasible);
}

TEST(Bcd, EntryBudgetTripAtEveryPointLeavesNoAnswer) {
  // Every budget below the solve's total segment count trips somewhere in
  // the recursion: inside a base case, a terminal branch, or a split
  // branch whose parent already pushed its terminal candidates. Each trip
  // must surface as an error with no answer, and the first budget that
  // suffices must reproduce the unbudgeted answer exactly.
  const auto inst = scenarios::make_scenario("poly_scale:40", 7);
  ASSERT_TRUE(inst.has_value());
  const BcdGapResult full = solve_bcd_gap(*inst);
  ASSERT_TRUE(full.error.empty()) << full.error;
  ASSERT_TRUE(full.feasible);
  bcd::BcdOptions opts;
  std::size_t trips = 0;
  for (opts.max_entries = 1; opts.max_entries < 100'000; ++opts.max_entries) {
    const BcdGapResult r = solve_bcd_gap(*inst, opts);
    if (r.error.empty()) {
      EXPECT_TRUE(r.feasible);
      EXPECT_EQ(r.transitions, full.transitions);
      EXPECT_EQ(r.states, full.states);
      EXPECT_EQ(r.entries, full.entries);
      EXPECT_EQ(r.schedule, full.schedule);
      break;
    }
    ++trips;
    EXPECT_FALSE(r.feasible) << "budget " << opts.max_entries;
    EXPECT_EQ(r.schedule.scheduled_count(), 0u)
        << "budget " << opts.max_entries;
  }
  // The sweep ended on a success, past more trip points than the frontier
  // has kept segments (pruning drops candidates, so the budget is larger).
  EXPECT_LT(opts.max_entries, 100'000u);
  EXPECT_GE(trips, full.entries);
}

// ------------------------------------------------- brute-force agreement --

class BcdVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BcdVsBruteForce, GapAgrees) {
  const std::uint64_t seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 29 + 11);
  GAPSCHED_TRACE_SEED(seed);
  Prng rng(seed);
  // Mix of tight and loose draws; ~half are infeasible, exercising the
  // empty-frontier verdict.
  const Instance inst = gen_uniform_one_interval(rng, 7, 12, 5, 1);
  const ExactGapResult bf = brute_force_min_transitions(inst);
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.feasible, bf.feasible);
  if (bf.feasible) {
    EXPECT_EQ(r.transitions, bf.transitions);
    EXPECT_EQ(r.schedule.validate(inst), "");
  }
}

TEST_P(BcdVsBruteForce, PowerAgrees) {
  const std::uint64_t seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 31 + 17);
  GAPSCHED_TRACE_SEED(seed);
  Prng rng(seed);
  const Instance inst = gen_uniform_one_interval(rng, 6, 11, 5, 1);
  // Sweep alpha through the integer-boundary cases (0, fractional, whole).
  const double alpha = (GetParam() % 3 == 0) ? 0.0
                       : (GetParam() % 3 == 1) ? kAlpha
                                               : 3.0;
  const ExactPowerResult bf = brute_force_min_power(inst, alpha);
  const BcdPowerResult r = solve_bcd_power(inst, alpha);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.feasible, bf.feasible);
  if (bf.feasible) {
    EXPECT_NEAR(r.power, bf.power, 1e-9 * (1.0 + std::abs(bf.power)));
    EXPECT_EQ(r.schedule.validate(inst), "");
    const oracle::ScheduleAudit audit =
        oracle::audit_schedule(inst, r.schedule);
    ASSERT_TRUE(audit.valid && audit.complete);
    // The claimed optimum must be exactly the realized schedule's power.
    EXPECT_NEAR(oracle::min_power(audit, alpha), r.power,
                1e-9 * (1.0 + std::abs(r.power)));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BcdVsBruteForce, ::testing::Range(0, 40));

// ------------------------------------------------ solve_baptiste parity --

TEST(Bcd, SolveBaptisteForwardsToBcd) {
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed =
        testing::seed_for(static_cast<std::uint64_t>(i) * 41 + 3);
    GAPSCHED_TRACE_SEED(seed);
    Prng rng(seed);
    const Instance inst = gen_uniform_one_interval(rng, 8, 14, 5, 1);
    const BcdGapResult r = solve_bcd_gap(inst);
    const BaptisteResult b = solve_baptiste(inst);
    ASSERT_EQ(b.feasible, r.feasible);
    if (r.feasible) {
      EXPECT_EQ(b.spans, r.transitions);
      EXPECT_EQ(b.gaps, r.transitions - 1);
    }
  }
}

// --------------------------------------------------------- large-n smoke --

TEST(Bcd, SolvesDenseChainAtTwoThousandJobs) {
  // Window [j, j + 3] for j = 0..1999: slot j for job j packs everything
  // into one block, so the optimum is a single transition.
  std::vector<std::pair<Time, Time>> windows;
  for (Time j = 0; j < 2000; ++j) windows.push_back({j, j + 3});
  const Instance inst = Instance::one_interval(windows);
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
  EXPECT_EQ(r.schedule.validate(inst), "");
  EXPECT_GE(r.states, 2000u);  // genuinely visited the whole prefix chain
}

TEST(Bcd, SolvesClusteredTwoThousandJobsWithClosedFormPower) {
  // 50 clusters of 40 tight jobs, 100 apart: each cluster is one block,
  // every interior gap (60 slots) far exceeds alpha. Gap optimum = 50
  // blocks; power optimum = n + alpha + 49 * alpha.
  std::vector<std::pair<Time, Time>> windows;
  for (Time c = 0; c < 50; ++c) {
    for (Time j = 0; j < 40; ++j) {
      windows.push_back({c * 100 + j, c * 100 + j});
    }
  }
  const Instance inst = Instance::one_interval(windows);
  const BcdGapResult g = solve_bcd_gap(inst);
  ASSERT_TRUE(g.error.empty()) << g.error;
  ASSERT_TRUE(g.feasible);
  EXPECT_EQ(g.transitions, 50);
  const BcdPowerResult p = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(p.error.empty()) << p.error;
  ASSERT_TRUE(p.feasible);
  EXPECT_NEAR(p.power, 2000.0 + kAlpha + 49.0 * kAlpha, 1e-6);
}

// ------------------------------------------------------ pinned counters --

// Memoized states, kept frontier segments and the optimum on fixed
// poly_scale draws. A change to the split scan or the frontier prune that
// visits a different state set, or keeps a different frontier, moves these
// numbers even when the optimum survives.
struct PinnedBcdRun {
  const char* scenario;
  std::int64_t transitions;
  std::size_t states;
  std::size_t entries;
};

TEST(Bcd, PolyScaleGapWorkCountersArePinned) {
  const PinnedBcdRun pins[] = {{"poly_scale:1200", 124, 1778, 3764},
                               {"poly_scale:2000", 192, 2965, 6392}};
  for (const PinnedBcdRun& pin : pins) {
    SCOPED_TRACE(pin.scenario);
    const auto inst = scenarios::make_scenario(pin.scenario, 7);
    ASSERT_TRUE(inst.has_value());
    const BcdGapResult r = solve_bcd_gap(*inst);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.transitions, pin.transitions);
    EXPECT_EQ(r.states, pin.states);
    EXPECT_EQ(r.entries, pin.entries);
    EXPECT_EQ(r.schedule.validate(*inst), "");
  }
}

// FNV-1a over every job's slot, in job order: the extracted schedule
// itself, beyond its cost and the work counters above.
std::uint64_t schedule_digest(const Schedule& schedule) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    const auto& slot = schedule.at(j);
    h = fnv1a64_word(slot.has_value() ? static_cast<std::uint64_t>(slot->time)
                                      : ~std::uint64_t{0},
                     h);
  }
  return h;
}

TEST(Bcd, PolyScaleSchedulesArePinned) {
  // Which optimal schedule the DP extracts follows from its tie-breaks
  // (raw candidate order, the prune's (lead, c, index) sort, the split
  // scan order); a storage change that keeps the cost but reorders them
  // moves these digests.
  struct PinnedSchedule {
    const char* scenario;
    bool power;
    std::uint64_t digest;
  };
  const PinnedSchedule pins[] = {
      {"poly_scale:1200", false, 0x3a5f3069273eb06full},
      {"poly_scale:2000", false, 0x780900814f375d6ull},
      {"poly_scale:1200", true, 0x98b1febca69dfa5aull},
  };
  for (const PinnedSchedule& pin : pins) {
    SCOPED_TRACE(std::string(pin.scenario) + (pin.power ? " power" : " gap"));
    const auto inst = scenarios::make_scenario(pin.scenario, 7);
    ASSERT_TRUE(inst.has_value());
    const Schedule schedule = pin.power
                                  ? solve_bcd_power(*inst, kAlpha).schedule
                                  : solve_bcd_gap(*inst).schedule;
    ASSERT_TRUE(schedule.complete());
    EXPECT_EQ(schedule_digest(schedule), pin.digest)
        << std::hex << "0x" << schedule_digest(schedule);
  }
}

TEST(Bcd, PolyScalePowerWorkCountersArePinned) {
  const auto inst = scenarios::make_scenario("poly_scale:1200", 7);
  ASSERT_TRUE(inst.has_value());
  const BcdPowerResult r = solve_bcd_power(*inst, kAlpha);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 1494.5);
  EXPECT_EQ(r.states, 1778u);
  EXPECT_EQ(r.entries, 5180u);
  EXPECT_EQ(r.schedule.validate(*inst), "");
}

}  // namespace
}  // namespace gapsched
