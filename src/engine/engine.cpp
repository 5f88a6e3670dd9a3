#include "gapsched/engine/engine.hpp"

#include <string>
#include <utility>

#include "gapsched/store/store.hpp"

namespace gapsched::engine {

BatchSummary summarize(const std::vector<SolveResult>& results) {
  BatchSummary s;
  s.total = results.size();
  for (const SolveResult& r : results) {
    if (!r.ok) {
      ++s.rejected;
      continue;
    }
    ++s.ok;
    if (r.feasible) {
      ++s.feasible;
    } else {
      ++s.infeasible;
    }
    if (r.timed_out) ++s.timed_out;
    if (r.audited) {
      ++s.audited;
      if (!r.audit_error.empty()) ++s.refuted;
    }
    if (r.stats.cache_hit) ++s.cache_hits;
    s.component_cache_hits += r.stats.component_cache_hits;
    s.components_deduped += r.stats.components_deduped;
  }
  return s;
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      registry_(SolverRegistry::create_with_builtins()),
      cache_(options_.cache
                 ? std::make_unique<SolveCache>(options_.cache_capacity)
                 : nullptr),
      pool_(options_.threads),
      hooks_{cache_.get(), &pool_} {
  if (cache_ != nullptr && !options_.store_path.empty()) {
    store::StoreOptions sopt;
    sopt.max_bytes = options_.store_max_bytes;
    store_ = store::DiskStore::open(options_.store_path, sopt, &store_error_);
    // Open failure leaves the engine memory-only: a corrupt or foreign
    // store file degrades persistence, never a solve.
    if (store_ != nullptr) {
      cache_->attach_store(store_.get(), options_.store_spill_min_ms);
    }
  }
}

Engine::~Engine() = default;

SolveResult Engine::solve(std::string_view solver,
                          const SolveRequest& request) {
  const Solver* s = registry_->find(solver);
  if (s == nullptr) {
    SolveResult rejected =
        SolveResult::rejected("unknown solver '" + std::string(solver) + "'");
    record(rejected);
    return rejected;
  }
  return solve(*s, request);
}

SolveResult Engine::solve(const Solver& solver, const SolveRequest& request) {
  SolveResult result = solver.solve(request, hooks_);
  record(result);
  return result;
}

std::vector<SolveResult> Engine::solve_batch(
    const std::vector<BatchJob>& jobs) {
  return solve_stream(jobs, nullptr);
}

std::vector<SolveResult> Engine::solve_stream(
    const std::vector<BatchJob>& jobs, const StreamCallback& on_result) {
  std::vector<SolveResult> results(jobs.size());
  // Resolve solver names up front so every entry hits the registry once and
  // pool threads only touch immutable Solver objects.
  std::vector<const Solver*> solvers(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    solvers[i] = registry_->find(jobs[i].solver);
  }
  std::mutex callback_mu;
  parallel_for(pool_, jobs.size(), [&](std::size_t i) {
    results[i] = solvers[i] != nullptr
                     ? solvers[i]->solve(jobs[i].request, hooks_)
                     : SolveResult::rejected("unknown solver '" +
                                             jobs[i].solver + "'");
    record(results[i]);
    if (on_result) {
      std::lock_guard<std::mutex> lk(callback_mu);
      on_result(i, results[i]);
    }
  });
  return results;
}

pipeline::PipelineStats Engine::pipeline_stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void Engine::reset_pipeline_stats() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_ = pipeline::PipelineStats{};
}

void Engine::record(const SolveResult& result) {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.absorb(result.stats);
}

CacheStats Engine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : CacheStats{};
}

void Engine::clear_cache() {
  if (cache_ != nullptr) cache_->clear();
}

void Engine::flush_store() {
  if (cache_ != nullptr) cache_->flush_spill();
}

}  // namespace gapsched::engine
