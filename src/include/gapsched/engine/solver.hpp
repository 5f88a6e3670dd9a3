#pragma once
// The Solver interface: one virtual seam between the engine and every
// algorithm family. Concrete adapters live in src/engine/builtin_solvers.cpp
// and register themselves with the SolverRegistry. The solve path itself is
// the staged request pipeline in engine/pipeline.hpp; this header only owns
// the family seam and the pipeline's environment (SolveHooks).

#include <cstddef>
#include <string>

#include "gapsched/engine/types.hpp"

namespace gapsched {
class ThreadPool;
}  // namespace gapsched

namespace gapsched::engine {

class SolveCache;

namespace pipeline {
class Pipeline;
}  // namespace pipeline

/// The pipeline's environment: every piece of cross-request state the
/// owning Engine threads through one solve. The default-constructed form
/// shares nothing across calls — that is the stateless path.
struct SolveHooks {
  /// Content-addressed solve cache. When set, the CacheLookup stage keys
  /// whole solves and decomposition components by canonical form,
  /// deduplicates identical components within one request, and Dispatch
  /// publishes fresh results back. When null, CacheLookup is skipped and
  /// nothing is shared across calls.
  SolveCache* cache = nullptr;
  /// The owning Engine's pool, which the Dispatch stage fans the
  /// components of a large decomposition over. Null solves components
  /// serially on the calling thread.
  ThreadPool* pool = nullptr;
};

/// Which SolveParams fields a family reads. Front ends use this to reject
/// options the selected solver would silently ignore; check() uses it to
/// validate only the parameters that are actually consumed.
enum ParamFlag : unsigned {
  kUsesAlpha = 1u << 0,      // SolveParams::alpha
  kUsesMaxSpans = 1u << 1,   // SolveParams::max_spans
  kUsesThreshold = 1u << 2,  // SolveParams::powerdown_threshold
  kUsesPacking = 1u << 3,    // SolveParams::swap_size / block_size
};

/// Static description of a solver family, used for dispatch-time capability
/// checks, `solver_cli --list`, and the README solver table.
struct SolverInfo {
  /// Registry key, e.g. "gap_dp". Lowercase identifier, unique.
  std::string name;
  Objective objective = Objective::kGaps;
  /// One-line description.
  std::string summary;
  /// Where the algorithm comes from, e.g. "Theorem 1 (Section 2)".
  std::string paper_ref;
  /// Asymptotic cost, e.g. "O(n^7 p^5)".
  std::string complexity;
  /// True for provably optimal solvers (within their envelope).
  bool exact = false;
  /// True when the family requires one-interval (release/deadline) jobs.
  bool requires_one_interval = false;
  /// Maximum supported processor count; 0 means unlimited. Families that
  /// define the problem on a single processor set 1 (the engine rejects
  /// p > 1 rather than silently ignoring the extra processors).
  int max_processors = 0;
  /// Hard instance-size cap (exponential reference solvers); 0 = unlimited.
  std::size_t max_n = 0;
  /// Bitmask of ParamFlag: the SolveParams fields this family consumes.
  unsigned params = 0;
};

/// Abstract solver. Implementations must be stateless across calls (solve()
/// is invoked concurrently from Engine::solve_batch's worker threads).
class Solver {
 public:
  virtual ~Solver() = default;

  virtual const SolverInfo& info() const = 0;

  /// Validates the request against info() and the instance's own
  /// well-formedness, then walks the staged pipeline (engine/pipeline.hpp)
  /// with an empty environment; fills stats.wall_ms, stats.stages, and
  /// timed_out. Never throws: rejections come back as
  /// SolveResult::rejected.
  SolveResult solve(const SolveRequest& request) const;

  /// Stateful variant: same pipeline, threaded through the front-end-owned
  /// environment in `hooks` (see SolveHooks). solve(request) is exactly
  /// solve(request, {}).
  SolveResult solve(const SolveRequest& request,
                    const SolveHooks& hooks) const;

  /// Returns a non-empty diagnostic when `solve` would reject the request
  /// without running the underlying algorithm.
  std::string check(const SolveRequest& request) const;

 protected:
  /// The family-specific adapter, invoked by the pipeline's Dispatch
  /// stage. Called only with requests that passed check(); must fill
  /// ok/feasible/cost/transitions/schedule/stats fields other than
  /// wall_ms.
  virtual SolveResult do_solve(const SolveRequest& request) const = 0;

 private:
  /// The Dispatch stage is the only caller of do_solve outside this class.
  friend class pipeline::Pipeline;
};

}  // namespace gapsched::engine
