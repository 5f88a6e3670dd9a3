#pragma once
// gapsched::engine::Engine — the one owner of the solve runtime, and the
// API every downstream consumer (CLI, benches, tests, the server) sits on.
//
// An Engine owns every piece of cross-request state around the staged
// solve pipeline (engine/pipeline.hpp):
//
//   * its solver registry (every built-in family pre-registered; add() more
//     per engine without touching the process-wide instance()),
//   * one nest-safe ThreadPool (parallel/thread_pool.hpp): solve_batch and
//     solve_stream fan requests over it, and the Dispatch stage fans the
//     components of a large decomposition over the same pool (reached
//     through SolveHooks). Its helpers spawn on the first fan-out, so an
//     engine that only solves small requests starts no thread,
//   * the lifetime per-stage PipelineStats roll-up (pipeline_stats()),
//   * a content-addressed solve cache (engine/cache.hpp): requests are
//     keyed by the canonical form of (prep-canonicalized — and, for gap
//     components, dead-time-compressed — instance, objective, the
//     parameters the solver consumes). Repeated solves, time-shifted or
//     job-permuted copies, and identical components inside one decomposed
//     instance all collapse onto one entry; SolveStats::cache_hit /
//     component_cache_hits / components_deduped report what was reused.
//     Cached entries store no audit state: a hit under params.validate is
//     re-audited against the requester's own instance by the independent
//     oracle.
//
// Every method is thread-safe: concurrent solve()/solve_stream() calls
// share the cache, the pool and the stats roll-up under their own locks.
//
// Batches: solve_batch() is the bulk call — results[i] always answers
// jobs[i]. solve_stream() is the same with a completion callback — each
// SolveResult is delivered as it finishes (callback invocations are
// serialized, completion order is non-deterministic) while the returned
// vector keeps request order; this is the seam a sharded server front end
// streams results through.
//
// Determinism: with the cache DISABLED, batch results are bitwise
// reproducible at any thread count (solvers are single-threaded and
// deterministic). With the cache enabled, a canonical-equivalent request
// may be served from an entry another request populated, and whether it
// hits depends on cache state and completion timing — costs of exact
// families and all feasibility verdicts are unaffected (any served answer
// is optimal and oracle-checked), but heuristic families, being job-order
// sensitive, may return a different valid answer than a fresh solve
// would. Benches that require reproducible output use {.cache = false}.

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/pipeline.hpp"
#include "gapsched/engine/registry.hpp"
#include "gapsched/engine/solver.hpp"
#include "gapsched/engine/types.hpp"
#include "gapsched/parallel/thread_pool.hpp"

namespace gapsched::store {
class DiskStore;
}

namespace gapsched::engine {

struct EngineOptions {
  /// Concurrency of solve_batch/solve_stream and of component fan-out (the
  /// calling thread counts as one); 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Enables the content-addressed solve cache.
  bool cache = true;
  /// Cache entry cap (LRU eviction); 0 = unbounded. Ignored when !cache.
  std::size_t cache_capacity = 4096;
  /// Path of the persistent on-disk solve store (store/store.hpp), shared
  /// across processes and restarts; empty keeps the cache memory-only.
  /// Opened (created when missing) at construction; an open failure is
  /// recorded in Engine::store_error() and the engine runs memory-only —
  /// a broken store file can cost speed, never correctness or startup.
  /// Requires cache.
  std::string store_path = {};
  /// Cost-weighted spill admission: only entries whose solve wall time was
  /// at least this many ms are persisted (a cached 10 ms DP answer is
  /// worth a disk record; a 10 us one is not).
  double store_spill_min_ms = 0.1;
  /// Store file size budget in bytes; exceeding appends trigger
  /// keep-most-expensive compaction. 0 = unbounded.
  std::size_t store_max_bytes = 0;
};

/// Roll-up of a batch's outcomes. `timed_out` results are counted
/// separately from `ok` — a timed-out answer is advisory at best, and a
/// batch that produced one must not be reported as an unqualified success.
struct BatchSummary {
  std::size_t total = 0;
  std::size_t ok = 0;        // engine accepted and a solver ran
  std::size_t rejected = 0;  // !ok: outside the solver's envelope
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::size_t timed_out = 0;  // ok, but over params.time_limit_s
  std::size_t audited = 0;
  std::size_t refuted = 0;  // audited with a non-empty audit_error
  std::size_t cache_hits = 0;
  std::size_t component_cache_hits = 0;
  std::size_t components_deduped = 0;

  /// True when every entry ran inside its envelope, none exceeded its time
  /// budget, and no audited answer was refuted.
  bool success() const {
    return rejected == 0 && timed_out == 0 && refuted == 0;
  }
};

BatchSummary summarize(const std::vector<SolveResult>& results);

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }

  /// This engine's registry (mutable so custom solvers can be add()ed
  /// per engine).
  SolverRegistry& registry() { return *registry_; }
  const SolverRegistry& registry() const { return *registry_; }

  /// One cache-aware solve. Unknown names come back as a rejection. Every
  /// result — including rejections — is folded into pipeline_stats().
  SolveResult solve(std::string_view solver, const SolveRequest& request);
  SolveResult solve(const Solver& solver, const SolveRequest& request);

  /// Bulk batch: results[i] answers jobs[i]. Bitwise reproducible at any
  /// thread count when the cache is disabled; see the header comment for
  /// the cache-on determinism caveat.
  std::vector<SolveResult> solve_batch(const std::vector<BatchJob>& jobs);

  /// Called once per completed entry with its request index. Invocations
  /// are serialized (no locking needed inside), but arrive in completion
  /// order, not request order; the returned vector restores request order.
  using StreamCallback =
      std::function<void(std::size_t index, const SolveResult& result)>;

  /// Streaming batch: like solve_batch, delivering each result through
  /// `on_result` the moment it completes. A null callback degenerates to
  /// solve_batch.
  std::vector<SolveResult> solve_stream(const std::vector<BatchJob>& jobs,
                                        const StreamCallback& on_result);

  /// Per-stage pipeline roll-up (runs/skips/summed wall time, indexed by
  /// PipelineStage) across every request this engine served.
  pipeline::PipelineStats pipeline_stats() const;
  void reset_pipeline_stats();

  /// Hit/miss/eviction counters of the solve cache (zeros when disabled).
  /// With a store attached this includes the disk tier: disk_hits,
  /// disk_rejects, spilled, disk_entries.
  CacheStats cache_stats() const;
  /// Drops the in-memory cache tier; the persistent store is untouched.
  void clear_cache();

  /// The persistent store, if one was opened (null otherwise).
  store::DiskStore* store() { return store_.get(); }
  /// Why store_path could not be opened ("" when it was, or none was set).
  const std::string& store_error() const { return store_error_; }
  /// Blocks until every queued write-behind spill reached the store — the
  /// barrier to call before handing the store file to another process.
  void flush_store();

 private:
  /// Folds one finished result into the stats roll-up.
  void record(const SolveResult& result);

  EngineOptions options_;
  std::unique_ptr<SolverRegistry> registry_;
  // Declared before cache_: the cache's spill worker must join (in
  // ~SolveCache) while the store it appends to is still alive.
  std::unique_ptr<store::DiskStore> store_;
  std::string store_error_;
  std::unique_ptr<SolveCache> cache_;  // null when options_.cache is false
  ThreadPool pool_;
  SolveHooks hooks_;  // cache_ + pool_, threaded through every solve
  mutable std::mutex stats_mu_;
  pipeline::PipelineStats stats_;
};

}  // namespace gapsched::engine
