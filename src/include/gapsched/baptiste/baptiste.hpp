#pragma once
// Baptiste's problem [Bap06]: exact single-processor gap scheduling for
// one-interval unit jobs — the baseline the paper builds Theorem 1 on.
//
// Historically this module forwarded to the exponential Theorem 1 window DP
// restricted to p = 1. It now runs the polynomial Baptiste-Chrobak-Durr
// algorithm (src/bcd, [BCD07] arXiv:0908.3505) — same answers wherever both
// are in range, but live at n in the thousands — and keeps the interface
// downstream users expect (spans / interior gaps rather than multiprocessor
// transitions). Through the engine, the same algorithm is the registry's
// `bcd_poly_gap` family.

#include <cstdint>
#include <string>

#include "gapsched/core/schedule.hpp"

namespace gapsched {

struct BaptisteResult {
  bool feasible = false;
  /// Number of spans (maximal busy stretches) = transitions for p = 1.
  std::int64_t spans = 0;
  /// Interior gaps between spans: spans - 1 (0 when infeasible/empty).
  std::int64_t gaps = 0;
  Schedule schedule;
  /// Non-empty when the underlying DP refused the instance (shape guard or
  /// state/entry budget valve); `feasible` is then meaningless.
  std::string error;
};

/// Exact single-processor gap scheduling. Requires a one-interval instance;
/// `inst.processors` is ignored (treated as 1).
BaptisteResult solve_baptiste(const Instance& inst);

}  // namespace gapsched
