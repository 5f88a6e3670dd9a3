#pragma once
// Public surface of the Baptiste-Chrobak-Durr polynomial solver family
// ([BCD07], arXiv:0908.3505): minimum-gap and minimum-energy scheduling of
// one-interval unit jobs on a single processor in polynomial time — the
// registry's `bcd_poly_gap` / `bcd_poly_power` families, and the algorithm
// behind solve_baptiste(). The DP itself (release-class decomposition
// with Pareto frontiers per subproblem) lives in bcd_core.hpp; this header
// is the result-struct API mirroring gap_dp.hpp / power_dp.hpp so callers
// and the engine treat the families uniformly.
//
// Both solvers ignore `Instance::processors` and treat the instance as
// single-machine, matching solve_baptiste's historical contract; the engine
// registration separately enforces max_processors = 1 for the families.

#include <cstddef>
#include <cstdint>
#include <string>

#include "gapsched/bcd/bcd_core.hpp"
#include "gapsched/core/instance.hpp"
#include "gapsched/core/schedule.hpp"

namespace gapsched {

/// Minimum-gap answer. `transitions` counts sleep->active wake-ups, i.e.
/// the number of busy blocks (interior gaps + 1) — identical semantics to
/// GapDpResult on one processor.
struct BcdGapResult {
  bool feasible = false;
  std::int64_t transitions = 0;
  Schedule schedule;
  /// Memoized (prefix, release-band) subproblems touched.
  std::size_t states = 0;
  /// Pareto frontier entries kept across all subproblems (table cells).
  std::size_t entries = 0;
  /// Non-empty when the solve was refused (shape guard or budget valve);
  /// feasible/transitions/schedule are meaningless then.
  std::string error;
};

/// Minimum-energy answer: power = n + alpha + sum over interior gaps of
/// min(gap, alpha) — the same objective solve_power_dp reports.
struct BcdPowerResult {
  bool feasible = false;
  double power = 0.0;
  Schedule schedule;
  std::size_t states = 0;
  std::size_t entries = 0;
  std::string error;
};

BcdGapResult solve_bcd_gap(const Instance& inst);
BcdGapResult solve_bcd_gap(const Instance& inst, const bcd::BcdOptions& opts);

BcdPowerResult solve_bcd_power(const Instance& inst, double alpha);
BcdPowerResult solve_bcd_power(const Instance& inst, double alpha,
                               const bcd::BcdOptions& opts);

}  // namespace gapsched
