// T12 — persistent store warm-restart study (store/store.hpp).
// Measures what the on-disk solve cache tier is for: a catalog sweep of
// ms-scale exact solves run twice through SEPARATE Engine instances
// sharing one store file — the cold pass populates the store (every solve
// spilled, spill_min_ms = 0), the warm pass simulates a process restart
// (fresh Engine, fresh in-memory cache, same file) and must serve its
// answers from oracle-gated disk hits instead of re-running the DPs.
//
// Correctness gates (the bench exits non-zero, so the CI benchmark lane
// doubles as a regression test):
//   * zero oracle refutations in either pass (params.validate is on, and
//     every disk admission is independently re-audited in the pipeline);
//   * warm costs byte-identical to the cold reference;
//   * the warm pass actually hit the disk tier (> 0 disk hits, 0 rejects);
//   * warm-restart speedup >= 2x (sanity floor; the committed baseline
//     records the real figure — a disk record costs one store read, one
//     JSON decode and one linear oracle sweep, against an
//     exponential-window or polynomial-BCD dynamic program).
//
// Each row's warm CacheLookup stage time is split into its parts: after
// the warm pass the bench replays every request's disk path with the
// public calls the pipeline makes (DiskStore::load, io::result_from_json,
// oracle::check_result) and times each one.
//
// Everything lands in BENCH_tab12.json: the host, per-row cold/warm wall
// times and speedups, the warm CacheLookup and its load/decode/audit split,
// plus the store counters (spilled, disk_hits, disk_rejects) — the
// machine-readable baseline committed under bench/baselines/.

#include "bench_common.hpp"
#include "json_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gapsched/core/transforms.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/store/store.hpp"

using namespace gapsched;

namespace {

struct SweepRow {
  const char* scenario;
  const char* solver;
  int trials;
  /// Rows with the prep pipeline on exercise component-record disk hits;
  /// rows with it off isolate the store's own economics (decompose +
  /// compress run on the warm path too, so they put a floor under warm
  /// wall time that has nothing to do with the disk tier).
  bool decompose;
};

/// Families chosen for ms-scale fresh solves: big mixed gap instances for
/// the window DP, the long-horizon power stressor for the power DP, and
/// 1200/2000-job chains for the polynomial BCD solver (the dominant rows;
/// their dispatch cost is where a restart burns its time). The last row
/// sends the 2000-job chain through the prep pipeline, so its warm path
/// also pays Decompose and Compress.
constexpr SweepRow kSweep[] = {
    {"mega_mixed", "gap_dp", 4, true},
    {"power_longhaul", "power_dp", 4, true},
    {"poly_scale:1200", "bcd_poly_gap", 3, false},
    {"poly_scale:2000", "bcd_poly_gap", 2, false},
    {"poly_scale:2000", "bcd_poly_gap", 2, true},
};

struct PassStats {
  std::vector<double> row_ms;     // per sweep row, summed over trials
  std::vector<double> lookup_ms;  // CacheLookup stage, per row
  std::vector<double> costs;      // per request, in sweep order
  std::vector<bool> feasible;     // per request
  double total_ms = 0.0;
  int refuted = 0;
  engine::CacheStats cache;
};

PassStats run_pass(const std::string& store_path,
                   const std::vector<std::vector<engine::SolveRequest>>& rows,
                   const std::vector<const char*>& solvers) {
  engine::EngineOptions opt;
  opt.store_path = store_path;
  opt.store_spill_min_ms = 0.0;  // persist every solve, however cheap
  engine::Engine eng(opt);
  if (!eng.store_error().empty()) {
    std::fprintf(stderr, "T12 FAIL: store did not open: %s\n",
                 eng.store_error().c_str());
    std::exit(1);
  }
  PassStats out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double row_ms = 0.0;
    double lookup_ms = 0.0;
    for (const engine::SolveRequest& req : rows[r]) {
      Stopwatch watch;
      const engine::SolveResult res = eng.solve(solvers[r], req);
      row_ms += watch.millis();
      lookup_ms += res.stats.stages[static_cast<std::size_t>(
                                        engine::PipelineStage::kCacheLookup)]
                       .ms;
      if (!res.ok || !res.audit_error.empty()) {
        std::fprintf(stderr, "T12 refutation: %s on %s: %s%s\n", solvers[r],
                     kSweep[r].scenario, res.error.c_str(),
                     res.audit_error.c_str());
        ++out.refuted;
      }
      out.costs.push_back(res.cost);
      out.feasible.push_back(res.feasible);
    }
    out.row_ms.push_back(row_ms);
    out.lookup_ms.push_back(lookup_ms);
    out.total_ms += row_ms;
  }
  eng.flush_store();  // make the pass durable before the engine goes away
  out.cache = eng.cache_stats();
  return out;
}

/// The instances the pipeline keys a request's disk records by: the
/// canonical whole instance, or with prep on, each component's compressed
/// image (cut threshold and cap as in engine/pipeline.cpp; every solver in
/// the sweep is exact, so prep-on rows always decompose).
std::vector<Instance> keyed_instances(const engine::SolveRequest& req) {
  if (!req.params.decompose) {
    return {prep::canonicalize(req.instance).instance};
  }
  const bool power = req.objective == engine::Objective::kPower;
  const auto alpha_ceil = static_cast<Time>(std::ceil(req.params.alpha));
  const auto n = static_cast<Time>(req.instance.n());
  const Time threshold = power ? std::max(n, alpha_ceil) : n;
  const Time cap = power ? alpha_ceil + 1 : 1;
  std::vector<Instance> out;
  for (const prep::Component& comp :
       prep::decompose(req.instance, threshold).components) {
    out.push_back(compress_dead_time_capped(comp.instance, cap).instance);
  }
  return out;
}

/// One row's disk path, replayed: store read, JSON decode and oracle
/// re-audit, each summed over the row's records. Like the warm pass, it
/// reads each record once: a key already `seen` was a memory hit there.
struct DiskSplit {
  int records = 0;
  int refuted = 0;
  double load_ms = 0.0;
  double decode_ms = 0.0;
  double audit_ms = 0.0;
};

DiskSplit replay_disk_path(store::DiskStore& disk,
                           const engine::SolverInfo& info,
                           const std::vector<engine::SolveRequest>& requests,
                           std::set<std::string>* seen) {
  DiskSplit split;
  for (const engine::SolveRequest& req : requests) {
    for (const Instance& inst : keyed_instances(req)) {
      const engine::CacheKey key =
          engine::make_cache_key(info, req.objective, req.params, inst);
      if (!seen->insert(key.text).second) continue;
      Stopwatch watch;
      const std::optional<std::string> payload =
          disk.load(key.digest, key.text);
      split.load_ms += watch.millis();
      if (!payload.has_value()) continue;
      watch.reset();
      const std::optional<engine::SolveResult> record =
          io::result_from_json(*payload);
      split.decode_ms += watch.millis();
      if (!record.has_value()) continue;
      watch.reset();
      const std::string refuted = oracle::check_result(
          req.objective, req.params, inst, *record, info.exact);
      split.audit_ms += watch.millis();
      ++split.records;
      if (!refuted.empty()) ++split.refuted;
    }
  }
  return split;
}

}  // namespace

int main(int, char** argv) {
  bench::banner("T12 (persistent store warm restart)",
                "a restarted engine serves oracle-gated disk hits instead "
                "of re-running its DPs; cold/warm sweep over one store");

  const std::string store_path = std::string(argv[0]) + ".store";
  std::remove(store_path.c_str());

  // Build every request up front so both passes replay the same sweep.
  std::vector<std::vector<engine::SolveRequest>> rows;
  std::vector<const char*> solvers;
  engine::Engine probe({.cache = false});
  for (const SweepRow& sweep : kSweep) {
    const engine::Solver* solver = probe.registry().find(sweep.solver);
    if (solver == nullptr) {
      std::fprintf(stderr, "T12 FAIL: unknown solver %s\n", sweep.solver);
      return 1;
    }
    std::vector<engine::SolveRequest> requests;
    for (int trial = 0; trial < sweep.trials; ++trial) {
      const auto inst =
          scenarios::make_scenario(sweep.scenario, bench::kSeed + trial);
      if (!inst.has_value()) {
        std::fprintf(stderr, "T12 FAIL: unknown scenario %s\n",
                     sweep.scenario);
        return 1;
      }
      engine::SolveRequest req;
      req.instance = *inst;
      req.objective = solver->info().objective;
      req.params.alpha = 2.5;
      req.params.decompose = sweep.decompose;
      req.params.validate = true;
      requests.push_back(std::move(req));
    }
    rows.push_back(std::move(requests));
    solvers.push_back(sweep.solver);
  }

  std::cout << "cold pass (populating " << store_path << ") ...\n";
  const PassStats cold = run_pass(store_path, rows, solvers);
  std::cout << "warm pass (restarted engine, same store) ...\n\n";
  const PassStats warm = run_pass(store_path, rows, solvers);

  std::string store_error;
  const std::unique_ptr<store::DiskStore> disk =
      store::DiskStore::open(store_path, {}, &store_error);
  if (disk == nullptr) {
    std::fprintf(stderr, "T12 FAIL: store did not reopen: %s\n",
                 store_error.c_str());
    return 1;
  }
  std::vector<DiskSplit> splits;
  std::set<std::string> seen;
  int replay_refuted = 0;
  std::size_t replayed = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    splits.push_back(replay_disk_path(
        *disk, probe.registry().find(solvers[r])->info(), rows[r], &seen));
    replay_refuted += splits.back().refuted;
    replayed += static_cast<std::size_t>(splits.back().records);
  }

  int failures = cold.refuted + warm.refuted + replay_refuted;
  if (failures > 0) {
    std::fprintf(stderr, "T12 FAIL: %d oracle refutation(s)\n", failures);
  }
  if (replayed != warm.cache.disk_hits) {
    std::fprintf(stderr,
                 "T12 FAIL: the replay read %zu disk record(s), the warm "
                 "pass %zu\n",
                 replayed, warm.cache.disk_hits);
    ++failures;
  }
  for (std::size_t i = 0; i < cold.costs.size(); ++i) {
    if (cold.costs[i] != warm.costs[i] ||
        cold.feasible[i] != warm.feasible[i]) {
      std::fprintf(stderr,
                   "T12 FAIL: warm answer %zu diverged from cold "
                   "(%.6f/%d vs %.6f/%d)\n",
                   i, warm.costs[i], int(warm.feasible[i]), cold.costs[i],
                   int(cold.feasible[i]));
      ++failures;
    }
  }
  if (warm.cache.disk_hits == 0) {
    std::fprintf(stderr, "T12 FAIL: warm pass never hit the disk tier\n");
    ++failures;
  }
  if (warm.cache.disk_rejects != 0) {
    std::fprintf(stderr,
                 "T12 FAIL: %zu disk reject(s) on an uncorrupted store\n",
                 warm.cache.disk_rejects);
    ++failures;
  }
  const double speedup =
      warm.total_ms > 0.0 ? cold.total_ms / warm.total_ms : 0.0;
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "T12 FAIL: warm restart speedup %.2fx below the 2x sanity "
                 "floor (cold %.1f ms, warm %.1f ms)\n",
                 speedup, cold.total_ms, warm.total_ms);
    ++failures;
  }

  Table table({"scenario", "solver", "prep", "trials", "cold_ms", "warm_ms",
               "speedup", "lookup_ms", "load_ms", "decode_ms", "audit_ms"});
  bench::Json json_rows = bench::Json::array();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double row_speedup =
        warm.row_ms[r] > 0.0 ? cold.row_ms[r] / warm.row_ms[r] : 0.0;
    const DiskSplit& split = splits[r];
    table.row()
        .add(kSweep[r].scenario)
        .add(kSweep[r].solver)
        .add(kSweep[r].decompose ? "on" : "off")
        .add(kSweep[r].trials)
        .add(cold.row_ms[r], 2)
        .add(warm.row_ms[r], 2)
        .add(row_speedup, 2)
        .add(warm.lookup_ms[r], 3)
        .add(split.load_ms, 3)
        .add(split.decode_ms, 3)
        .add(split.audit_ms, 3);
    json_rows.push(
        bench::Json::object()
            .set("scenario", kSweep[r].scenario)
            .set("solver", kSweep[r].solver)
            .set("prep", kSweep[r].decompose)
            .set("trials", kSweep[r].trials)
            .set("cold_ms", cold.row_ms[r])
            .set("warm_ms", warm.row_ms[r])
            .set("speedup", row_speedup)
            .set("warm_cache_lookup_ms", warm.lookup_ms[r])
            .set("disk", bench::Json::object()
                             .set("records", split.records)
                             .set("load_ms", split.load_ms)
                             .set("decode_ms", split.decode_ms)
                             .set("audit_ms", split.audit_ms)));
  }
  bench::emit(argv[0], table);

  bench::Json root =
      bench::Json::object()
          .set("experiment", "tab12_store_warm")
          .set("host",
               bench::Json::object()
                   .set("cpus", static_cast<std::int64_t>(
                                    std::thread::hardware_concurrency()))
                   .set("compiler", "g++ " __VERSION__))
          .set("seed", bench::kSeed)
          .set("requests",
               static_cast<std::int64_t>(cold.costs.size()))
          .set("cold_ms", cold.total_ms)
          .set("warm_ms", warm.total_ms)
          .set("speedup", speedup)
          .set("refuted", cold.refuted + warm.refuted)
          .set("failures", failures)
          .set("store",
               bench::Json::object()
                   .set("spilled", cold.cache.spilled)
                   .set("disk_entries", cold.cache.disk_entries)
                   .set("warm_disk_hits", warm.cache.disk_hits)
                   .set("warm_disk_rejects", warm.cache.disk_rejects)
                   .set("warm_spilled", warm.cache.spilled))
          .set("rows", std::move(json_rows));
  bench::emit_json("tab12", root);

  std::remove(store_path.c_str());
  if (failures == 0) {
    std::printf(
        "\nT12 PASS: %zu requests, %zu disk hit(s), 0 refutations, "
        "warm restart %.2fx faster (cold %.1f ms, warm %.1f ms)\n",
        cold.costs.size(), warm.cache.disk_hits, speedup, cold.total_ms,
        warm.total_ms);
  }
  return failures == 0 ? 0 : 1;
}
