// Differential testing past the exponential envelope: the poly_scale:<n>
// families at n in {100, 500, 2000} are sizes where the Theorem 1/2 window
// DPs can no longer serve as practical ground truth, and the poly_wide:<n>
// family at n = 2000 is one they genuinely REJECT (its connected wide-window
// run carries ~1.2M distinct candidate times, past the 2^20 packed-key
// axis — pinned below). The ground-truth story up there is cross-checking:
//
//   * both polynomial families survive the independent oracle audit
//     (validity, completeness, exact cost accounting),
//   * the two objectives bound each other: power in
//     [n + alpha, n + alpha * B_gap], and no schedule beats the gap
//     optimum's block count,
//   * the heuristic ladder sits above the exact optimum.
//
// Runs under the `long` label.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

using engine::BatchJob;
using engine::Objective;
using engine::SolveResult;

constexpr int kSeedsPerSize = 6;
constexpr double kAlpha = 2.5;

engine::Engine& shared_engine() {
  static engine::Engine eng;  // cache ON: served answers face the same bar
  return eng;
}

SolveResult solve_one(const std::string& solver, const Instance& inst,
                      Objective objective) {
  engine::SolveRequest req;
  req.instance = inst;
  req.objective = objective;
  req.params.alpha = kAlpha;
  req.params.validate = true;
  return shared_engine().solve(solver, req);
}

TEST(PolyScaleDifferential, PolynomialFamiliesCrossCheckAtScale) {
  for (const std::size_t n : {std::size_t{100}, std::size_t{500},
                              std::size_t{2000}}) {
    const std::string name = "poly_scale:" + std::to_string(n);
    for (int draw = 0; draw < kSeedsPerSize; ++draw) {
      const std::uint64_t seed = testing::seed_for(n * 131 + draw);
      GAPSCHED_TRACE_SEED(seed);
      SCOPED_TRACE(::testing::Message() << name << " draw " << draw);
      const auto inst = scenarios::make_scenario(name, seed);
      ASSERT_TRUE(inst.has_value());

      const SolveResult gap =
          solve_one("bcd_poly_gap", *inst, Objective::kGaps);
      ASSERT_TRUE(gap.ok) << gap.error;
      ASSERT_TRUE(gap.feasible);  // family is feasible by construction
      EXPECT_TRUE(gap.audited);
      EXPECT_EQ(gap.audit_error, "") << gap.audit_error;
      EXPECT_GE(gap.transitions, 1);

      const SolveResult power =
          solve_one("bcd_poly_power", *inst, Objective::kPower);
      ASSERT_TRUE(power.ok) << power.error;
      ASSERT_TRUE(power.feasible);
      EXPECT_TRUE(power.audited);
      // The engine audit holds exact power families to cost ==
      // oracle::min_power(schedule): the min-power floor at this scale.
      EXPECT_EQ(power.audit_error, "") << power.audit_error;

      // Cross-objective bounds tie the two optima together. Lower: n active
      // slots plus one wake-up. Upper: the gap-optimal schedule's B blocks
      // cost at most n + alpha * B (every interior seam <= alpha).
      const double dn = static_cast<double>(n);
      EXPECT_GE(power.cost, dn + kAlpha - 1e-9);
      EXPECT_LE(power.cost,
                dn + kAlpha * static_cast<double>(gap.transitions) + 1e-9);
      // And no complete schedule undercuts the gap optimum's block count —
      // in particular the power-optimal one.
      EXPECT_GE(power.transitions, gap.transitions);

      // Heuristic ladder: work-conserving EDF completes every feasible
      // one-interval instance and can only sit above the exact optimum.
      const SolveResult edf =
          solve_one("online_edf", *inst, Objective::kGaps);
      ASSERT_TRUE(edf.ok) << edf.error;
      ASSERT_TRUE(edf.feasible);
      EXPECT_EQ(edf.audit_error, "");
      EXPECT_GE(edf.transitions, gap.transitions);
    }
  }
}

// In-range optimality differential on the WIDE shape: at small n the
// poly_wide windows (hundreds of usable slots per job) are still inside the
// window DPs' envelope, so exact agreement here is what certifies the bcd
// segment frontiers before the sizes where the window DPs drop out.
TEST(PolyScaleDifferential, WideWindowsAgreeWithWindowDpsInRange) {
  for (const std::size_t n :
       {std::size_t{4}, std::size_t{8}, std::size_t{12}, std::size_t{20}}) {
    const std::string name = "poly_wide:" + std::to_string(n);
    for (int draw = 0; draw < 3; ++draw) {
      const std::uint64_t seed = testing::seed_for(n * 977 + draw);
      GAPSCHED_TRACE_SEED(seed);
      SCOPED_TRACE(::testing::Message() << name << " draw " << draw);
      const auto inst = scenarios::make_scenario(name, seed);
      ASSERT_TRUE(inst.has_value());

      const SolveResult dp_gap = solve_one("gap_dp", *inst, Objective::kGaps);
      const SolveResult bcd_gap =
          solve_one("bcd_poly_gap", *inst, Objective::kGaps);
      ASSERT_TRUE(dp_gap.ok) << dp_gap.error;
      ASSERT_TRUE(bcd_gap.ok) << bcd_gap.error;
      ASSERT_TRUE(dp_gap.feasible);
      ASSERT_TRUE(bcd_gap.feasible);
      EXPECT_EQ(bcd_gap.transitions, dp_gap.transitions);
      EXPECT_EQ(bcd_gap.audit_error, "") << bcd_gap.audit_error;

      const SolveResult dp_pow = solve_one("power_dp", *inst, Objective::kPower);
      const SolveResult bcd_pow =
          solve_one("bcd_poly_power", *inst, Objective::kPower);
      ASSERT_TRUE(dp_pow.ok) << dp_pow.error;
      ASSERT_TRUE(bcd_pow.ok) << bcd_pow.error;
      ASSERT_TRUE(dp_pow.feasible);
      ASSERT_TRUE(bcd_pow.feasible);
      EXPECT_NEAR(bcd_pow.cost, dp_pow.cost, 1e-9);
      EXPECT_EQ(bcd_pow.audit_error, "") << bcd_pow.audit_error;
    }
  }
}

// The acceptance pin for "sizes the exponential DPs cannot reach": the
// poly_wide:2000 draw is one connected run of ~1.2M usable slots, so the
// Theorem 1/2 families reject over their packed-key candidate-time axis
// (2^20 distinct times) — and with no dead run anywhere, the prep
// compression/decomposition cannot rescue them. The polynomial families
// answer the very same instance through the very same engine: their
// segment frontiers never materialize the width.
TEST(PolyScaleDifferential, ExponentialDpsRejectWherePolynomialSolves) {
  const auto inst = scenarios::make_scenario("poly_wide:2000",
                                             testing::seed_for(424242));
  ASSERT_TRUE(inst.has_value());

  const SolveResult gap_dp = solve_one("gap_dp", *inst, Objective::kGaps);
  EXPECT_FALSE(gap_dp.ok) << "gap_dp unexpectedly accepted n = 2000 wide";
  EXPECT_FALSE(gap_dp.error.empty());

  const SolveResult power_dp =
      solve_one("power_dp", *inst, Objective::kPower);
  EXPECT_FALSE(power_dp.ok) << "power_dp unexpectedly accepted n = 2000 wide";
  EXPECT_FALSE(power_dp.error.empty());

  const SolveResult bcd_gap =
      solve_one("bcd_poly_gap", *inst, Objective::kGaps);
  ASSERT_TRUE(bcd_gap.ok) << bcd_gap.error;
  EXPECT_TRUE(bcd_gap.feasible);
  EXPECT_EQ(bcd_gap.audit_error, "") << bcd_gap.audit_error;
  const SolveResult bcd_power =
      solve_one("bcd_poly_power", *inst, Objective::kPower);
  ASSERT_TRUE(bcd_power.ok) << bcd_power.error;
  EXPECT_TRUE(bcd_power.feasible);
  EXPECT_EQ(bcd_power.audit_error, "") << bcd_power.audit_error;

  // The same bounds that tie the two objectives together in range.
  EXPECT_GE(bcd_power.cost, 2000.0 + kAlpha - 1e-9);
  EXPECT_LE(bcd_power.cost,
            2000.0 + kAlpha * static_cast<double>(bcd_gap.transitions) + 1e-9);
  EXPECT_GE(bcd_power.transitions, bcd_gap.transitions);
}

}  // namespace
}  // namespace gapsched
