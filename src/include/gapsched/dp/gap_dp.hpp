#pragma once
// Theorem 1: polynomial-time exact multiprocessor gap scheduling.
//
// Minimizes the number of sleep->active transitions (see core/profile.hpp
// for why transitions are the sound reading of the paper's gap count) for n
// one-interval unit jobs on p processors, via the paper's dynamic program
// over windows of candidate times with the 6-index state
// (t1, t2, k, q, l1, l2). Implemented top-down with memoization so only
// reachable states are materialized; the paper's bound is O(n^5 p^3) states
// and O(n^7 p^5) time, and the exactness experiment (T1) checks the solver
// against brute force while the scaling experiment (F1) measures the actual
// reachable-state counts. The execution layer (dp_engine.hpp) selects a
// dense arena or hash memo per solve, prunes dominated candidate branches,
// and can parallelize the top-level candidate scan — all answer-preserving.
//
// p = 1 reproduces Baptiste's algorithm [Bap06] (see baptiste/baptiste.hpp).

#include <cstdint>
#include <string>

#include "gapsched/core/schedule.hpp"
#include "gapsched/dp/dp_stats.hpp"

namespace gapsched {

struct GapDpResult {
  bool feasible = false;
  /// Minimum number of sleep->active transitions.
  std::int64_t transitions = 0;
  /// An optimal schedule, staircase processor assignment.
  Schedule schedule;
  /// Number of memoized DP states (for the F1 scaling experiment).
  std::size_t states = 0;
  /// Memo layout/pruning diagnostics of this solve.
  dp::MemoStats memo;
  /// Non-empty when the instance exceeds the DP's packed-state key limits
  /// (|Theta| < 2^20, n <= 4095, p <= 4095 — dp::kMaxThetaSize /
  /// kMaxDpJobs / kMaxDpProcessors): no solve was attempted and `feasible`
  /// is meaningless. Solving anyway would silently alias memo keys and
  /// return wrong optima.
  std::string error;
};

/// Solves multiprocessor gap scheduling exactly. Requires a one-interval
/// instance; rejects (GapDpResult::error) instances over the packed-state
/// limits dp::kMaxDpJobs / kMaxDpProcessors / kMaxThetaSize.
GapDpResult solve_gap_dp(const Instance& inst);

/// As above with explicit execution options (memo layout, pruning). Every
/// option combination returns bit-identical answers; only speed and
/// diagnostics differ.
GapDpResult solve_gap_dp(const Instance& inst, const dp::DpOptions& opts);

}  // namespace gapsched
