// The staged solve path (see engine/pipeline.hpp). The stage units carry
// the logic that used to live as one monolithic body in
// src/engine/solver.cpp; the walk must stay bit-for-bit equivalent to it —
// the differential, metamorphic, fuzz, and prep suites all pin that.

#include "gapsched/engine/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "gapsched/oracle/oracle.hpp"
#include "gapsched/parallel/thread_pool.hpp"
#include "gapsched/util/stopwatch.hpp"

namespace gapsched::engine::pipeline {

namespace {

/// Components are fanned over the environment's pool only when there are
/// at least two of them and the largest is at least this many jobs:
/// dispatch overhead exceeds an entire small-cluster DP solve, so small
/// decompositions run inline, and a lone component has nothing to run
/// beside it.
constexpr std::size_t kParallelFanoutMinComponentJobs = 16;

constexpr std::size_t kNoDup = static_cast<std::size_t>(-1);

/// Decomposition is sound exactly for the families whose reported objective
/// is provably additive across far-apart components: the exact gap and
/// power solvers. Heuristics may legally return different (still valid)
/// answers per component, and the throughput objective shares one global
/// span budget across components, so both keep the undecomposed path.
bool wants_decomposition(const SolverInfo& info, const SolveRequest& request) {
  return request.params.decompose && info.exact &&
         request.objective != Objective::kThroughput &&
         request.instance.n() >= 2;
}

/// Cut threshold: separation > n keeps the Prop 2.1 candidate
/// neighbourhoods of distinct components disjoint and makes gap optima
/// additive; power additionally needs the dead run to be >= alpha so that
/// bridging a processor across the cut is never cheaper than the fresh
/// wake-up the right component already prices (see prep.hpp).
Time cut_threshold(const SolveRequest& request) {
  Time threshold = static_cast<Time>(request.instance.n());
  if (request.objective == Objective::kPower) {
    const double alpha_ceil = std::ceil(request.params.alpha);
    // check() only guarantees alpha >= 0; an enormous (or infinite) alpha
    // must disable cutting rather than overflow the Time cast.
    if (!(alpha_ceil <
          static_cast<double>(std::numeric_limits<Time>::max() / 2))) {
      return std::numeric_limits<Time>::max();
    }
    threshold = std::max(threshold, static_cast<Time>(alpha_ceil));
  }
  return threshold;
}

/// Compress runs on the decomposed components (core/transforms), which
/// cuts the Prop 2.1 candidate axis and makes canonical cache keys
/// independent of interior dead-run lengths. The cap is length-aware per
/// objective: gap components shrink every run no job can use to one unit
/// (busy-time adjacency is all that matters), while power components keep
/// min(run, ceil(alpha) + 1) units so that every idle-bridging term
/// min(gap, alpha) is preserved exactly — a truncated run alone is already
/// longer than alpha, so any gap it shortens sits on the min's alpha
/// plateau before and after the map. Returns 0 when the request must not
/// be compressed (throughput's span budget is global, an unrepresentable
/// ceil(alpha) must disable truncation rather than overflow, and
/// params.compress opts out).
Time compression_cap(const SolveRequest& request) {
  if (!request.params.compress) return 0;
  switch (request.objective) {
    case Objective::kGaps:
      return 1;
    case Objective::kPower: {
      const double alpha_ceil = std::ceil(request.params.alpha);
      if (!(alpha_ceil <
            static_cast<double>(std::numeric_limits<Time>::max() / 2))) {
        return 0;
      }
      return static_cast<Time>(alpha_ceil) + 1;
    }
    case Objective::kThroughput:
      return 0;
  }
  return 0;
}

/// Maps a schedule produced on a compressed instance back to the
/// uncompressed time axis (job order is unchanged by compression).
Schedule decompress_times(const Schedule& in, const CompressedInstance& ci) {
  Schedule out(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) {
    const std::optional<Placement>& slot = in.at(j);
    if (slot.has_value()) {
      out.place(j, ci.to_original(slot->time), slot->processor);
    }
  }
  return out;
}

/// Maps a schedule of the canonicalized instance back to the original job
/// indices and time origin.
Schedule uncanonicalize(const Schedule& in, const prep::Canonical& canon) {
  Schedule out(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) {
    const std::optional<Placement>& slot = in.at(j);
    if (slot.has_value()) {
      out.place(canon.order[j], slot->time + canon.shift, slot->processor);
    }
  }
  return out;
}

/// Inverse of uncanonicalize: rewrites an original-coordinate schedule in
/// canonical job order and origin, the form cache entries are stored in.
Schedule canonicalize_schedule(const Schedule& in,
                               const prep::Canonical& canon) {
  Schedule out(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) {
    const std::optional<Placement>& slot = in.at(canon.order[j]);
    if (slot.has_value()) {
      out.place(j, slot->time - canon.shift, slot->processor);
    }
  }
  return out;
}

StageStats& stage_of(SolveContext& ctx, PipelineStage stage) {
  return ctx.stages[static_cast<std::size_t>(stage)];
}

/// Disk tier of the CacheLookup stage. A record loaded from the persistent
/// store is UNTRUSTED input: it must be a complete, feasible answer (the
/// only kind the spill policy ever writes — an infeasibility verdict
/// carries no schedule the oracle could re-check, so one arriving from
/// disk is by definition doctored or stale) and it must survive a full
/// oracle re-audit against `canonical`, the exact instance its key
/// hashes. Anything less degrades to a cache miss and a fresh solve —
/// never a wrong answer.
std::shared_ptr<const SolveResult> disk_load(SolveContext& ctx,
                                             const CacheKey& key,
                                             const Instance& canonical) {
  if (!ctx.env.cache->has_store()) return nullptr;
  std::shared_ptr<const SolveResult> cand = ctx.env.cache->probe_disk(key);
  if (cand == nullptr) return nullptr;
  bool admit = cand->ok && cand->feasible && cand->error.empty();
  if (admit) {
    admit = oracle::check_result(ctx.request.objective, ctx.request.params,
                                 canonical, *cand, ctx.solver.info().exact)
                .empty();
  }
  if (!admit) {
    ctx.env.cache->reject_disk(key);
    return nullptr;
  }
  ctx.env.cache->admit_disk(key, *cand);
  return cand;
}

}  // namespace

// --------------------------------------------------------------- stages --

/// Routes the request and computes the canonical form of a whole-instance
/// solve. Decomposed solves skip this: prep::decompose re-anchors every
/// component to sorted jobs at origin 0, so canonicalization happens per
/// component inside the Decompose stage. Without a cache there is nothing
/// to key, so the stage is skipped there too.
void Pipeline::canonicalize(SolveContext& ctx) {
  ctx.decomposing = wants_decomposition(ctx.solver.info(), ctx.request);
  if (ctx.decomposing || ctx.env.cache == nullptr) return;
  stage_of(ctx, PipelineStage::kCanonicalize).ran = true;
  ctx.canonical = prep::canonicalize(ctx.request.instance);
  ctx.whole_key = make_cache_key(ctx.solver.info(), ctx.request.objective,
                                 ctx.request.params, ctx.canonical->instance);
}

/// Splits the instance into independent far-apart components
/// (prep::decompose) and sets up the per-component state later stages
/// fill. When the split finds a single component and neither the cache nor
/// the compressor needs the component form, the request takes the
/// monolithic fast path: Dispatch solves it whole.
void Pipeline::decompose(SolveContext& ctx) {
  if (!ctx.decomposing) return;
  stage_of(ctx, PipelineStage::kDecompose).ran = true;
  ctx.dec = prep::decompose(ctx.request.instance, cut_threshold(ctx.request));
  ctx.cap = compression_cap(ctx.request);
  if (ctx.dec.components.size() <= 1 && ctx.env.cache == nullptr &&
      ctx.cap == 0) {
    ctx.single_component_fast_path = true;
    return;
  }
  const std::size_t m = ctx.dec.components.size();
  ctx.compressed.resize(ctx.cap > 0 ? m : 0);
  ctx.solve_inst.resize(m);
  ctx.parts.resize(m);
  ctx.dup_of.assign(m, kNoDup);
  // Default routing solves every component; CacheLookup refines this to
  // the genuinely-new ones when the environment carries a cache.
  ctx.to_solve.resize(m);
  for (std::size_t c = 0; c < m; ++c) ctx.to_solve[c] = c;
  ctx.agg.components = m;
}

/// Dead-time compresses every component at the objective's length-aware
/// cap. The compressed image is both what Dispatch solves and what
/// CacheLookup hashes — two components differing only in interior dead-run
/// lengths (beyond the cap) share an entry.
void Pipeline::compress(SolveContext& ctx) {
  if (!ctx.decomposing || ctx.single_component_fast_path) return;
  const bool compressing = ctx.cap > 0;
  stage_of(ctx, PipelineStage::kCompress).ran = compressing;
  for (std::size_t c = 0; c < ctx.solve_inst.size(); ++c) {
    if (compressing) {
      ctx.compressed[c] =
          compress_dead_time_capped(ctx.dec.components[c].instance, ctx.cap);
      ctx.solve_inst[c] = &ctx.compressed[c].instance;
      ctx.agg.dead_time_removed += ctx.compressed[c].dead_time_removed();
    } else {
      ctx.solve_inst[c] = &ctx.dec.components[c].instance;
    }
  }
}

/// Consults the environment's content-addressed cache: the whole solve by
/// its canonical key, or — through the decomposition — every component,
/// additionally deduplicating byte-identical components within this one
/// request. Leaves only genuinely new work in `to_solve`.
void Pipeline::cache_lookup(SolveContext& ctx) {
  if (ctx.env.cache == nullptr) return;
  stage_of(ctx, PipelineStage::kCacheLookup).ran = true;
  if (!ctx.decomposing) {
    ctx.whole_hit = ctx.env.cache->lookup(ctx.whole_key);
    if (ctx.whole_hit == nullptr) {
      ctx.whole_hit = disk_load(ctx, ctx.whole_key, ctx.canonical->instance);
    }
    return;
  }
  const std::size_t m = ctx.dec.components.size();
  ctx.keys.reserve(m);
  for (std::size_t c = 0; c < m; ++c) {
    ctx.keys.push_back(make_cache_key(ctx.solver.info(), ctx.request.objective,
                                      ctx.request.params, *ctx.solve_inst[c]));
  }
  ctx.to_solve.clear();
  std::map<std::string_view, std::size_t> first_with_key;
  for (std::size_t c = 0; c < m; ++c) {
    const auto [it, inserted] = first_with_key.try_emplace(ctx.keys[c].text, c);
    if (!inserted) {
      ctx.dup_of[c] = it->second;
      ++ctx.agg.components_deduped;
      continue;
    }
    std::shared_ptr<const SolveResult> hit = ctx.env.cache->lookup(ctx.keys[c]);
    if (hit == nullptr) {
      // Component keys hash the instance Dispatch would solve (the
      // compressed image when compressing), so the disk candidate is
      // audited against exactly that form.
      hit = disk_load(ctx, ctx.keys[c], *ctx.solve_inst[c]);
    }
    if (hit != nullptr) {
      ctx.parts[c] = *hit;  // entry is shared; copy outside the lock
      ctx.hit_components.push_back(c);
      ++ctx.agg.component_cache_hits;
    } else {
      ctx.to_solve.push_back(c);
    }
  }
  ctx.agg.cache_hit =
      ctx.to_solve.empty() && ctx.agg.component_cache_hits > 0;
}

/// Runs the family adapter (do_solve): once for a whole-instance solve, or
/// per component — fanned over the environment's pool for large
/// decompositions — and publishes fresh results to the cache. Skipped
/// entirely when the cache already served everything.
void Pipeline::dispatch(SolveContext& ctx) {
  if (!ctx.decomposing || ctx.single_component_fast_path) {
    if (!ctx.decomposing && ctx.whole_hit != nullptr) return;  // hit serves it
    stage_of(ctx, PipelineStage::kDispatch).ran = true;
    if (!ctx.decomposing && ctx.env.cache != nullptr) {
      // Miss: solve the ORIGINAL instance — heuristic families are
      // job-order sensitive, so a cold solve must behave exactly like the
      // stateless path — and store the result rewritten in canonical
      // coordinates, the form that serves every time-shifted or
      // job-permuted copy of this workload.
      SolveRequest sub;
      sub.instance = ctx.request.instance;
      sub.objective = ctx.request.objective;
      sub.params = ctx.request.params;
      sub.params.validate = false;
      sub.params.time_limit_s = 0.0;
      Stopwatch solve_watch;
      ctx.result = ctx.solver.do_solve(sub);
      const double solve_ms = solve_watch.millis();
      if (ctx.result.ok) {
        SolveResult canonical = ctx.result;
        canonical.schedule =
            canonicalize_schedule(ctx.result.schedule, *ctx.canonical);
        ctx.env.cache->insert(ctx.whole_key, canonical, solve_ms);
      }
      return;
    }
    // The stateless whole-instance path, and the single-component fast
    // path of a decomposition that needs no component form.
    ctx.result = ctx.solver.do_solve(ctx.request);
    return;
  }

  stage_of(ctx, PipelineStage::kDispatch).ran = !ctx.to_solve.empty();
  // Component requests inherit the caller's parameters; the oracle audit
  // and the wall-clock budget apply to the recombined whole, not the parts.
  std::size_t largest = 0;
  for (std::size_t c : ctx.to_solve) {
    largest = std::max(largest, ctx.solve_inst[c]->n());
  }
  // Per-component solve wall time, the disk tier's admission/compaction
  // weight (parts carry no wall_ms of their own — the runner only stamps
  // the recombined whole).
  std::vector<double> solve_ms(ctx.parts.size(), 0.0);
  const auto solve_component = [&ctx, &solve_ms](std::size_t i) {
    const std::size_t c = ctx.to_solve[i];
    SolveRequest sub;
    // Safe to move: cache keys were built by CacheLookup, recombine()
    // reads only the components' job maps and shifts, and
    // decompress_times() reads only the interval maps — nothing needs the
    // instance afterwards.
    sub.instance = std::move(*ctx.solve_inst[c]);
    sub.objective = ctx.request.objective;
    sub.params = ctx.request.params;
    sub.params.validate = false;
    sub.params.time_limit_s = 0.0;
    Stopwatch solve_watch;
    ctx.parts[c] = ctx.solver.do_solve(sub);
    solve_ms[c] = solve_watch.millis();
  };
  if (ctx.env.pool != nullptr && ctx.to_solve.size() > 1 &&
      largest >= kParallelFanoutMinComponentJobs) {
    parallel_for(*ctx.env.pool, ctx.to_solve.size(), solve_component);
  } else {
    for (std::size_t i = 0; i < ctx.to_solve.size(); ++i) solve_component(i);
  }
  if (ctx.env.cache != nullptr) {
    for (std::size_t c : ctx.to_solve) {
      if (ctx.parts[c].ok) {
        ctx.env.cache->insert(ctx.keys[c], ctx.parts[c], solve_ms[c]);
      }
    }
  }
}

/// Assembles the final answer: maps a whole-instance cache hit back to the
/// requester's coordinates, or merges the component parts — resolving
/// intra-request duplicates, summing costs/stats across the additive cut,
/// decompressing times, and recombining the schedules.
void Pipeline::recombine(SolveContext& ctx) {
  if (!ctx.decomposing) {
    if (ctx.whole_hit == nullptr) return;  // Dispatch already set result
    stage_of(ctx, PipelineStage::kRecombine).ran = true;
    ctx.result = *ctx.whole_hit;  // entry is shared; copy outside the lock
    ctx.result.stats.cache_hit = true;
    ctx.result.schedule = uncanonicalize(ctx.result.schedule, *ctx.canonical);
    return;
  }
  if (ctx.single_component_fast_path) {
    ctx.result.stats.components = 1;
    return;
  }
  stage_of(ctx, PipelineStage::kRecombine).ran = true;
  const std::size_t m = ctx.dec.components.size();
  if (ctx.env.cache != nullptr) {
    for (std::size_t c = 0; c < m; ++c) {
      if (ctx.dup_of[c] != kNoDup) ctx.parts[c] = ctx.parts[ctx.dup_of[c]];
    }
  }

  SolveResult out;
  out.ok = true;
  out.feasible = true;
  out.stats = ctx.agg;
  for (std::size_t c = 0; c < m; ++c) {
    const SolveResult& part = ctx.parts[c];
    if (!part.ok) {
      // A component the family itself cannot handle (e.g. a single cluster
      // over the DP's packed-key limits) rejects the whole request; the
      // component counter survives so callers can see how far prep got.
      SolveResult rejected = SolveResult::rejected(
          "component " + std::to_string(c) + " of " + std::to_string(m) +
          ": " + part.error);
      rejected.stats = ctx.agg;
      ctx.result = std::move(rejected);
      return;
    }
    out.feasible = out.feasible && part.feasible;
  }
  // states/nodes sum the solver work embodied in the answer's unique
  // components: fresh solves plus the work that originally produced each
  // cached entry (matching the whole-instance hit path); deduplicated
  // copies reuse a counted representative and contribute nothing.
  for (const std::vector<std::size_t>* group :
       {&ctx.to_solve, &ctx.hit_components}) {
    for (std::size_t c : *group) {
      out.stats.states += ctx.parts[c].stats.states;
      out.stats.nodes += ctx.parts[c].stats.nodes;
      out.stats.memo_arena_solves += ctx.parts[c].stats.memo_arena_solves;
      out.stats.memo_hash_solves += ctx.parts[c].stats.memo_hash_solves;
      out.stats.memo_find_calls += ctx.parts[c].stats.memo_find_calls;
      out.stats.memo_probe_steps += ctx.parts[c].stats.memo_probe_steps;
      out.stats.memo_pruned += ctx.parts[c].stats.memo_pruned;
    }
  }
  if (!out.feasible) {
    ctx.result = std::move(out);
    return;
  }

  // Components are separated by more than the cut threshold, so transitions
  // and costs are additive (see prep.hpp for the two objectives' arguments).
  std::vector<Schedule> schedules(m);
  for (std::size_t c = 0; c < m; ++c) {
    out.cost += ctx.parts[c].cost;
    out.transitions += ctx.parts[c].transitions;
    // Deduplicated components share a compressed-coordinate schedule but
    // map back through their own dead-run lengths.
    schedules[c] = ctx.cap > 0
                       ? decompress_times(ctx.parts[c].schedule,
                                          ctx.compressed[c])
                       : std::move(ctx.parts[c].schedule);
  }
  out.schedule = prep::recombine(ctx.dec, schedules, ctx.request.instance.n());
  out.stats.scheduled = out.schedule.scheduled_count();
  ctx.result = std::move(out);
}

/// Re-derives the answer with the independent oracle (params.validate on a
/// non-rejected result). Audit time is excluded from stats.wall_ms, which
/// the runner pins before this stage.
void Pipeline::audit(SolveContext& ctx) {
  if (!ctx.request.params.validate || !ctx.result.ok) return;
  stage_of(ctx, PipelineStage::kAudit).ran = true;
  ctx.result.audited = true;
  ctx.result.audit_error =
      oracle::check_result(ctx.request, ctx.result, ctx.solver.info().exact);
}

// --------------------------------------------------------------- runner --

SolveResult Pipeline::run(const Solver& solver, const SolveRequest& request,
                          const SolveHooks& env) {
  SolveContext ctx(solver, request, env);
  Stopwatch total;
  constexpr struct {
    PipelineStage stage;
    void (*unit)(SolveContext&);
  } kPreAuditStages[] = {
      {PipelineStage::kCanonicalize, &Pipeline::canonicalize},
      {PipelineStage::kDecompose, &Pipeline::decompose},
      {PipelineStage::kCompress, &Pipeline::compress},
      {PipelineStage::kCacheLookup, &Pipeline::cache_lookup},
      {PipelineStage::kDispatch, &Pipeline::dispatch},
      {PipelineStage::kRecombine, &Pipeline::recombine},
  };
  for (const auto& entry : kPreAuditStages) {
    Stopwatch sw;
    entry.unit(ctx);
    ctx.stages[static_cast<std::size_t>(entry.stage)].ms = sw.millis();
  }
  ctx.result.stats.wall_ms = total.millis();
  const double limit = request.params.time_limit_s;
  ctx.result.timed_out = limit > 0.0 && ctx.result.stats.wall_ms > limit * 1e3;
  {
    Stopwatch sw;
    audit(ctx);
    ctx.stages[static_cast<std::size_t>(PipelineStage::kAudit)].ms =
        sw.millis();
  }
  ctx.result.stats.stages = ctx.stages;
  return std::move(ctx.result);
}

}  // namespace gapsched::engine::pipeline
