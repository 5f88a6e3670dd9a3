// The Engine's request stream and the staged solve pipeline's observable
// semantics: per-stage ran/skip verdicts in SolveStats::stages, the
// Engine's lifetime PipelineStats roll-up, solve_stream callback ordering
// and request-order guarantees, concurrent streams contending on one
// shared cache, and the no-double-audit invariant (cache hits are
// re-audited exactly once, by the serving request). The `Session` suite
// covers what one Engine does across the requests it serves. The
// concurrency tests here also run under the CI ASan/UBSan and TSan lanes.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "../support/test_seed.hpp"

namespace gapsched::engine {
namespace {

Instance small_instance(std::uint64_t site) {
  Prng rng(testing::seed_for(site));
  return gen_feasible_one_interval(rng, 8, 16, 3, 1);
}

/// `copies` byte-identical far-apart clusters of three jobs each.
Instance identical_clusters(int copies) {
  Instance out;
  const Time spacing = 8 + static_cast<Time>(copies) * 3 + 64;
  for (int i = 0; i < copies; ++i) {
    const Time base = static_cast<Time>(i) * spacing;
    out.jobs.push_back(Job{TimeSet::window(base, base + 4)});
    out.jobs.push_back(Job{TimeSet::window(base + 1, base + 5)});
    out.jobs.push_back(Job{TimeSet::window(base + 3, base + 7)});
  }
  return out;
}

const StageStats& stage(const SolveResult& r, PipelineStage s) {
  return r.stats.stages[static_cast<std::size_t>(s)];
}

// ------------------------------------------------ stage ran/skip verdicts --

TEST(PipelineStages, DecomposedSolveReportsThePrepStages) {
  Engine eng;
  SolveRequest req{identical_clusters(3), Objective::kGaps, {}};
  const SolveResult r = eng.solve("gap_dp", req);
  ASSERT_TRUE(r.ok) << r.error;
  // Decomposed route: per-component canonicalization happens inside
  // Decompose, so the whole-instance Canonicalize stage is skipped.
  EXPECT_FALSE(stage(r, PipelineStage::kCanonicalize).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kDecompose).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kCompress).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kCacheLookup).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kRecombine).ran);
  EXPECT_FALSE(stage(r, PipelineStage::kAudit).ran);  // no --validate
}

TEST(PipelineStages, WholeInstanceCacheHitSkipsDispatch) {
  Engine eng;
  // Heuristic family: never decomposed, so the whole-instance cache route.
  SolveRequest req{small_instance(910), Objective::kGaps, {}};
  const SolveResult cold = eng.solve("fhkn_greedy", req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(stage(cold, PipelineStage::kCanonicalize).ran);
  EXPECT_FALSE(stage(cold, PipelineStage::kDecompose).ran);
  EXPECT_TRUE(stage(cold, PipelineStage::kCacheLookup).ran);
  EXPECT_TRUE(stage(cold, PipelineStage::kDispatch).ran);
  EXPECT_FALSE(stage(cold, PipelineStage::kRecombine).ran);

  const SolveResult warm = eng.solve("fhkn_greedy", req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  // The hit is served without invoking the family adapter; Recombine maps
  // the stored canonical schedule back to the requester's coordinates.
  EXPECT_FALSE(stage(warm, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(warm, PipelineStage::kRecombine).ran);
}

TEST(PipelineStages, AllComponentsCachedSkipsDispatch) {
  Engine eng;
  SolveRequest req{identical_clusters(4), Objective::kGaps, {}};
  const SolveResult cold = eng.solve("gap_dp", req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(stage(cold, PipelineStage::kDispatch).ran);

  const SolveResult warm = eng.solve("gap_dp", req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_FALSE(stage(warm, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(warm, PipelineStage::kRecombine).ran);
}

TEST(PipelineStages, CacheOffEngineSkipsTheCacheStages) {
  Engine eng({.cache = false});
  SolveRequest req{small_instance(911), Objective::kGaps, {}};
  const SolveResult r = eng.solve("fhkn_greedy", req);
  ASSERT_TRUE(r.ok) << r.error;
  // No cache: nothing to key, nothing to look up — straight to Dispatch.
  EXPECT_FALSE(stage(r, PipelineStage::kCanonicalize).ran);
  EXPECT_FALSE(stage(r, PipelineStage::kCacheLookup).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kDispatch).ran);
  EXPECT_FALSE(stage(r, PipelineStage::kRecombine).ran);
}

TEST(PipelineStages, AuditRunsExactlyForValidatedRequests) {
  Engine eng;
  SolveRequest req{small_instance(912), Objective::kGaps, {}};
  req.params.validate = true;
  const SolveResult cold = eng.solve("gap_dp", req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(cold.audited);
  EXPECT_TRUE(stage(cold, PipelineStage::kAudit).ran);

  // A cache hit under --validate is re-audited by the serving request (the
  // stored entry carries no audit state), still exactly once.
  const SolveResult warm = eng.solve("gap_dp", req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.audited);
  EXPECT_TRUE(warm.audit_error.empty()) << warm.audit_error;
  EXPECT_TRUE(stage(warm, PipelineStage::kAudit).ran);

  req.params.validate = false;
  const SolveResult unaudited = eng.solve("gap_dp", req);
  ASSERT_TRUE(unaudited.ok) << unaudited.error;
  EXPECT_FALSE(unaudited.audited);
  EXPECT_FALSE(stage(unaudited, PipelineStage::kAudit).ran);
}

// ------------------------------------------------- the engine stats roll-up --

TEST(Session, PipelineStatsTallyRunsAndSkipsAcrossRequests) {
  Engine eng;
  SolveRequest req{small_instance(913), Objective::kGaps, {}};
  req.params.validate = true;
  eng.solve("gap_dp", req);  // cold: dispatch runs
  eng.solve("gap_dp", req);  // warm: served from the cache

  const pipeline::PipelineStats stats = eng.pipeline_stats();
  EXPECT_EQ(stats.requests, 2u);
  const auto& dispatch =
      stats.stages[static_cast<std::size_t>(PipelineStage::kDispatch)];
  const auto& lookup =
      stats.stages[static_cast<std::size_t>(PipelineStage::kCacheLookup)];
  const auto& audit =
      stats.stages[static_cast<std::size_t>(PipelineStage::kAudit)];
  EXPECT_EQ(dispatch.runs, 1u);
  EXPECT_EQ(dispatch.skips, 1u);
  EXPECT_EQ(lookup.runs, 2u);
  EXPECT_EQ(lookup.skips, 0u);
  // Both requests asked for validation; both answers were audited — the
  // hit re-audits against the requester's own instance, exactly once each.
  EXPECT_EQ(audit.runs, 2u);
  EXPECT_EQ(audit.skips, 0u);
  // Every stage row accounts for every absorbed request.
  for (const pipeline::StageTally& t : stats.stages) {
    EXPECT_EQ(t.runs + t.skips, stats.requests);
  }

  eng.reset_pipeline_stats();
  EXPECT_EQ(eng.pipeline_stats().requests, 0u);
}

TEST(Session, RejectionsAreAbsorbedAsAllSkipRows) {
  Engine eng;
  SolveRequest req{small_instance(914), Objective::kGaps, {}};
  const SolveResult unknown = eng.solve("no_such_solver", req);
  EXPECT_FALSE(unknown.ok);

  SolveRequest wrong = req;
  wrong.objective = Objective::kPower;  // gap_dp rejects at check()
  const SolveResult rejected = eng.solve("gap_dp", wrong);
  EXPECT_FALSE(rejected.ok);

  const pipeline::PipelineStats stats = eng.pipeline_stats();
  EXPECT_EQ(stats.requests, 2u);
  for (const pipeline::StageTally& t : stats.stages) {
    EXPECT_EQ(t.runs, 0u);
    EXPECT_EQ(t.skips, 2u);
  }
}

// ---------------------------------------------------- streaming semantics --

TEST(Session, StreamCallbacksAreSerializedAndCoverEveryIndexOnce) {
  Engine eng({.threads = 4});
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 24; ++i) {
    jobs.push_back({"gap_dp",
                    {small_instance(920 + static_cast<std::uint64_t>(i)),
                     Objective::kGaps,
                     {}}});
  }

  std::atomic<int> in_callback{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::size_t> delivered;
  const std::vector<SolveResult> results =
      eng.solve_stream(jobs, [&](std::size_t index, const SolveResult& r) {
        // Invocations are serialized: no two callbacks may overlap.
        if (in_callback.fetch_add(1) != 0) overlapped = true;
        EXPECT_TRUE(r.ok) << r.error;
        delivered.push_back(index);
        in_callback.fetch_sub(1);
      });

  EXPECT_FALSE(overlapped.load());
  ASSERT_EQ(results.size(), jobs.size());
  // Completion order is unconstrained, but every index arrives exactly
  // once, and the returned vector restores request order: results[i]
  // answers jobs[i] (solver families are deterministic, so re-solving the
  // same request must reproduce the streamed answer bit for bit).
  EXPECT_EQ(std::set<std::size_t>(delivered.begin(), delivered.end()).size(),
            jobs.size());
  Engine check({.cache = false});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SolveResult expect = check.solve("gap_dp", jobs[i].request);
    EXPECT_EQ(results[i].cost, expect.cost) << "index " << i;
    EXPECT_EQ(results[i].schedule, expect.schedule) << "index " << i;
  }
}

TEST(Session, ConcurrentStreamsShareOneEngineWithoutDoubleAudit) {
  // Several threads stream overlapping batches through ONE engine: the
  // shared cache serves hits across streams, every stream keeps request
  // order, and each audited answer is audited by its own request exactly
  // once (audit runs == validated requests, never more).
  Engine eng({.threads = 2});
  constexpr int kStreams = 4;
  constexpr int kJobsPerStream = 12;
  std::vector<BatchJob> jobs;
  for (int i = 0; i < kJobsPerStream; ++i) {
    // Only 3 distinct instances per stream -> heavy cache contention.
    SolveRequest req{small_instance(940 + static_cast<std::uint64_t>(i % 3)),
                     Objective::kGaps,
                     {}};
    req.params.validate = true;
    jobs.push_back({"gap_dp", req});
  }

  std::vector<std::vector<SolveResult>> all(kStreams);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> callbacks{0};
  for (int t = 0; t < kStreams; ++t) {
    threads.emplace_back([&, t] {
      all[t] = eng.solve_stream(
          jobs, [&](std::size_t, const SolveResult&) { ++callbacks; });
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(callbacks.load(), static_cast<std::size_t>(kStreams) *
                                  kJobsPerStream);
  const SolveResult expect0 = Engine({.cache = false}).solve(
      "gap_dp", jobs[0].request);
  for (int t = 0; t < kStreams; ++t) {
    ASSERT_EQ(all[t].size(), jobs.size());
    for (std::size_t i = 0; i < all[t].size(); ++i) {
      const SolveResult& r = all[t][i];
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_TRUE(r.audited);
      EXPECT_TRUE(r.audit_error.empty()) << r.audit_error;
      // Request order held under contention: entry i answers jobs[i].
      EXPECT_EQ(r.cost, all[0][i].cost) << "stream " << t << " index " << i;
    }
    EXPECT_EQ(all[t][0].cost, expect0.cost);
  }

  // No double-audit: the Audit stage ran once per request — absorbed runs
  // equal the number of validated requests, even though most answers were
  // cache hits re-served across streams.
  const pipeline::PipelineStats stats = eng.pipeline_stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kStreams) * kJobsPerStream);
  const auto& audit =
      stats.stages[static_cast<std::size_t>(PipelineStage::kAudit)];
  EXPECT_EQ(audit.runs, stats.requests);
  EXPECT_EQ(audit.skips, 0u);
}

}  // namespace
}  // namespace gapsched::engine
