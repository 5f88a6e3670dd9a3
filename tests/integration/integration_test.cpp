// Cross-module integration: every solver against every other on shared
// workload families, plus end-to-end pipelines (serialize -> solve,
// compress -> solve, reduce -> solve -> extract). Solver dispatch goes
// through the engine registry — this file is also the end-to-end exercise
// of the engine seam the CLI and benches rely on.

#include <gtest/gtest.h>

#include "gapsched/core/transforms.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/io/serialize.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "gapsched/powermin/powermin_approx.hpp"
#include "gapsched/reductions/setcover_to_powermin.hpp"
#include "gapsched/restart/restart_greedy.hpp"
#include "gapsched/setcover/setcover.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

/// Shared cache-off engine: these pins assume independent stateless solves.
engine::Engine& shared_engine() {
  static engine::Engine eng({.cache = false});
  return eng;
}

// Four exact solvers and two approximations on the same one-interval
// single-processor instances: full consistency matrix, solved as one
// mixed-solver engine batch.
class SolverMatrix : public ::testing::TestWithParam<int> {};

TEST_P(SolverMatrix, AllSolversConsistent) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 173 + 7);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  Instance inst = (GetParam() % 2 == 0)
                      ? gen_uniform_one_interval(rng, 8, 12, 4, 1)
                      : gen_feasible_one_interval(rng, 8, 16, 3, 1);

  const bool feasible = is_feasible(inst);
  engine::SolveRequest gaps{inst, engine::Objective::kGaps, {}};
  const std::vector<engine::BatchJob> batch = {
      {"brute_force", gaps}, {"gap_dp", gaps},     {"bcd_poly_gap", gaps},
      {"span_search", gaps}, {"fhkn_greedy", gaps}, {"online_edf", gaps},
  };
  const std::vector<engine::SolveResult> results =
      shared_engine().solve_batch(batch);
  const engine::SolveResult& bf = results[0];

  // Every request was inside its solver's envelope, and feasibility is
  // unanimous.
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << batch[i].solver << ": " << results[i].error;
    EXPECT_EQ(results[i].feasible, feasible) << batch[i].solver;
  }
  if (!feasible) return;

  // All exact solvers agree on the optimum, and every produced schedule is
  // valid for the instance.
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].schedule.validate(inst), "") << batch[i].solver;
  }
  EXPECT_EQ(results[1].transitions, bf.transitions);  // gap_dp
  EXPECT_EQ(results[2].transitions, bf.transitions);  // bcd_poly_gap
  EXPECT_EQ(results[3].transitions, bf.transitions);  // span_search

  // Approximations sandwiched between OPT and their guarantees.
  const engine::SolveResult& greedy = results[4];
  const engine::SolveResult& online = results[5];
  EXPECT_GE(greedy.transitions, bf.transitions);
  EXPECT_LE(greedy.transitions, 3 * bf.transitions);
  EXPECT_GE(online.transitions, bf.transitions);

  // At huge alpha the power optimum bridges every idle stretch (idle cost
  // is tiny next to a re-wake), so it pays for at most the gap optimum's
  // transitions and at least one wake-up.
  const double alpha = 1e6;
  engine::SolveRequest power{inst, engine::Objective::kPower, {}};
  power.params.alpha = alpha;
  const engine::SolveResult pw = shared_engine().solve("power_dp", power);
  ASSERT_TRUE(pw.ok) << pw.error;
  ASSERT_TRUE(pw.feasible);
  const double implied = (pw.cost - static_cast<double>(inst.n())) / alpha;
  EXPECT_LE(implied, static_cast<double>(bf.transitions) + 0.01);
  EXPECT_GE(implied, 1.0 - 0.01);
}

INSTANTIATE_TEST_SUITE_P(Random, SolverMatrix, ::testing::Range(0, 25));

// Serialization round trip preserves solver results bit for bit.
class SerializeSolve : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSolve, SameOptimumAfterRoundTrip) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 179 + 11);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  Instance inst = gen_multi_interval(rng, 7, 18, 2, 2,
                                     1 + static_cast<int>(rng.index(2)));
  auto parsed = instance_from_string(instance_to_string(inst));
  ASSERT_TRUE(parsed.has_value());
  const engine::SolveResult a = shared_engine().solve(
      "brute_force", {inst, engine::Objective::kGaps, {}});
  const engine::SolveResult b = shared_engine().solve(
      "brute_force", {*parsed, engine::Objective::kGaps, {}});
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_EQ(a.transitions, b.transitions);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SerializeSolve, ::testing::Range(0, 15));

// Dead-time compression composes with the full solver stack.
TEST(Pipelines, CompressThenSolve) {
  Instance inst;
  inst.processors = 1;
  inst.jobs.push_back(Job{TimeSet::window(1000, 1002)});
  inst.jobs.push_back(Job{TimeSet::window(1000, 1002)});
  inst.jobs.push_back(Job{TimeSet::window(90000, 90001)});
  CompressedInstance c = compress_dead_time(inst);
  const GapDpResult orig = solve_gap_dp(inst);
  const GapDpResult comp = solve_gap_dp(c.instance);
  ASSERT_TRUE(orig.feasible);
  ASSERT_TRUE(comp.feasible);
  EXPECT_EQ(orig.transitions, comp.transitions);
  // Mapping compressed schedule times back gives original-legal times.
  for (std::size_t j = 0; j < inst.n(); ++j) {
    const Time t = c.to_original(comp.schedule.at(j)->time);
    EXPECT_TRUE(inst.jobs[j].allowed.contains(t)) << j;
  }
}

// End-to-end hardness pipeline: set cover -> scheduling instance -> greedy
// scheduling heuristic (Theorem 3 machinery) -> extracted cover is valid.
TEST(Pipelines, SetCoverThroughSchedulingHeuristic) {
  Prng rng(424242);
  SetCoverInstance sc = gen_random_set_cover(rng, 8, 6, 3);
  SetCoverReduction red = reduce_setcover_to_powermin(sc);
  // The Theorem 3 pipeline produces a feasible schedule...
  PowerMinApproxResult apx = powermin_approx(red.instance, red.alpha);
  ASSERT_TRUE(apx.feasible);
  ASSERT_EQ(apx.schedule.validate(red.instance), "");
  // ...whose extracted cover is valid (though not necessarily optimal).
  const auto cover = red.cover_from_schedule(apx.schedule);
  EXPECT_TRUE(is_valid_cover(sc, cover));
  const SetCoverResult exact = exact_set_cover(sc);
  EXPECT_GE(cover.size(), exact.chosen.size());
}

// Restart greedy with an unbounded budget schedules every job of a
// feasible instance.
TEST(Pipelines, RestartWithFullBudgetCompletes) {
  Prng rng(515151);
  Instance inst = gen_multi_interval(rng, 10, 24, 2, 2);
  ASSERT_TRUE(is_feasible(inst));
  RestartResult r = restart_greedy(inst, inst.n());
  EXPECT_EQ(r.scheduled, inst.n());
  EXPECT_EQ(r.schedule.validate(inst), "");
}

// The Theorem 3 approximation can never beat the exact Theorem 2 DP on
// one-interval instances (where both apply).
class ApproxVsExactPower : public ::testing::TestWithParam<int> {};

TEST_P(ApproxVsExactPower, ApproxAboveExact) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 191 + 13);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  Instance inst = gen_feasible_one_interval(rng, 8, 16, 3, 1);
  const double alpha = 0.5 + static_cast<double>(rng.index(8));
  engine::SolveRequest req{inst, engine::Objective::kPower, {}};
  req.params.alpha = alpha;
  const engine::SolveResult opt = shared_engine().solve("power_dp", req);
  const engine::SolveResult apx =
      shared_engine().solve("powermin_approx", req);
  ASSERT_TRUE(opt.ok && apx.ok) << opt.error << apx.error;
  ASSERT_TRUE(opt.feasible);
  ASSERT_TRUE(apx.feasible);
  EXPECT_GE(apx.cost + 1e-9, opt.cost);
  EXPECT_LE(apx.cost, (1.0 + alpha) * opt.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Random, ApproxVsExactPower, ::testing::Range(0, 20));

}  // namespace
}  // namespace gapsched
