#pragma once
// gapsched::engine::pipeline — the staged solve path behind Solver::solve.
//
// Every request walks the same seven named stages, in order:
//
//   Canonicalize → Decompose → Compress → CacheLookup → Dispatch
//                                                → Recombine → Audit
//
// Each stage is a small unit operating on an explicit per-request
// SolveContext (the request, its canonical forms, the component set, cache
// keys and hits, the partial results, and per-stage timings) instead of
// locals threaded through one monolithic function. Stages that do not
// apply to a request are skipped — and say so in SolveStats::stages, so a
// caller can see exactly which parts of the pipeline served its answer:
//
//   * Canonicalize runs for whole-instance solves on a cache-carrying
//     environment (decomposed solves canonicalize per component inside
//     Decompose, whose components come out sorted and origin-shifted);
//   * Decompose / Compress run for exact gap/power solves that opted into
//     the prep pipeline (SolveParams::decompose / compress);
//   * CacheLookup runs whenever the environment carries a SolveCache;
//   * Dispatch runs the family adapter (do_solve) — skipped entirely when
//     every component (or the whole solve) was served from the cache;
//   * Recombine merges component parts, maps cached schedules back to the
//     requester's coordinates, and aggregates stats;
//   * Audit re-derives the answer with the independent oracle under
//     params.validate.
//
// The SolveHooks environment (engine/solver.hpp) is what the owning Engine
// threads through the pipeline: its solve cache and its pool, which
// Dispatch fans large decompositions over. The pipeline itself is
// stateless across requests; with a default-constructed environment it
// shares nothing and solves components serially.

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "gapsched/core/transforms.hpp"
#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/solver.hpp"
#include "gapsched/engine/types.hpp"
#include "gapsched/prep/prep.hpp"

namespace gapsched::engine::pipeline {

/// Explicit per-request state of one pipeline walk. Created by
/// Pipeline::run, filled in stage by stage; owns every intermediate the
/// stages exchange so nothing is threaded through function locals.
struct SolveContext {
  SolveContext(const Solver& solver_in, const SolveRequest& request_in,
               const SolveHooks& env_in)
      : solver(solver_in), request(request_in), env(env_in) {}

  const Solver& solver;
  const SolveRequest& request;
  /// The pipeline's environment: cross-request cache + component pool.
  const SolveHooks& env;

  // ---- routing, decided by Canonicalize ----
  /// Request goes through the component pipeline (exact family, additive
  /// objective, params.decompose).
  bool decomposing = false;
  /// Decompose found a single component and neither the cache nor the
  /// compressor needs the component form: Dispatch solves the request
  /// whole, exactly like the monolithic path.
  bool single_component_fast_path = false;
  /// Length-aware dead-time cap for Compress; 0 disables compression.
  Time cap = 0;

  // ---- Canonicalize products (whole-instance route) ----
  std::optional<prep::Canonical> canonical;
  CacheKey whole_key;

  // ---- Decompose / Compress products ----
  prep::Decomposition dec;
  std::vector<CompressedInstance> compressed;
  /// The per-component instance Dispatch actually solves: the compressed
  /// image when Compress ran, the raw component otherwise.
  std::vector<Instance*> solve_inst;

  // ---- CacheLookup products ----
  std::shared_ptr<const SolveResult> whole_hit;
  std::vector<CacheKey> keys;
  /// Components left to genuinely solve / served from the cross-request
  /// cache / intra-request duplicates of an earlier component.
  std::vector<std::size_t> to_solve;
  std::vector<std::size_t> hit_components;
  std::vector<std::size_t> dup_of;

  // ---- Dispatch / Recombine products ----
  std::vector<SolveResult> parts;
  /// Prep/caching stats aggregated across stages, folded into the final
  /// result by Recombine.
  SolveStats agg;

  /// The answer under construction; final after Recombine + Audit.
  SolveResult result;

  /// Per-stage wall time and ran/skipped verdicts, copied into
  /// result.stats.stages when the walk completes.
  std::array<StageStats, kPipelineStageCount> stages{};
};

/// The staged request pipeline. `run` drives the fixed stage sequence over
/// a fresh SolveContext; the per-stage units are private — callers go
/// through Solver::solve (stateless) or the Engine (stateful), which
/// both land here.
class Pipeline {
 public:
  /// Walks all seven stages for one pre-validated request (Solver::check
  /// must have passed) and returns the finished result, stage timings
  /// included. Bit-for-bit equivalent to the former monolithic
  /// Solver::solve body.
  static SolveResult run(const Solver& solver, const SolveRequest& request,
                         const SolveHooks& env);

 private:
  static void canonicalize(SolveContext& ctx);
  static void decompose(SolveContext& ctx);
  static void compress(SolveContext& ctx);
  static void cache_lookup(SolveContext& ctx);
  static void dispatch(SolveContext& ctx);
  static void recombine(SolveContext& ctx);
  static void audit(SolveContext& ctx);
};

/// Lifetime tallies of one pipeline stage across an Engine (or any other
/// accumulator): how often it ran, how often the pipeline skipped it, and
/// the summed wall time of the runs.
struct StageTally {
  std::uint64_t runs = 0;
  std::uint64_t skips = 0;
  double total_ms = 0.0;
};

/// Per-stage roll-up of every request an Engine pushed through the
/// pipeline, indexed by PipelineStage.
struct PipelineStats {
  std::array<StageTally, kPipelineStageCount> stages{};
  /// Results absorbed. Requests rejected at Solver::check never enter the
  /// pipeline and show up as an all-skip row.
  std::uint64_t requests = 0;

  /// Folds one finished result's stage record into the tallies.
  void absorb(const SolveStats& stats) {
    ++requests;
    for (std::size_t i = 0; i < kPipelineStageCount; ++i) {
      const StageStats& s = stats.stages[i];
      if (s.ran) {
        ++stages[i].runs;
        stages[i].total_ms += s.ms;
      } else {
        ++stages[i].skips;
      }
    }
  }
};

}  // namespace gapsched::engine::pipeline
