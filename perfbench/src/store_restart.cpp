// store_restart: restarts on a populated persistent store. Set-up solves
// the "disk" tasks once through an Engine that spills every answer, so the
// store file holds their records. Each timed pass copies that file
// (untimed), then times a fresh Engine on the copy: store open, every
// request of the pass, and the final write-behind flush. About 80% of a
// pass's requests are on disk (probe -> load -> decode -> oracle
// re-audit -> admit); the rest are new instances that miss, solve and
// spill (append + fsync). Sizes reach poly_scale:2000.
//
// One client thread: every request is one solve call (p50_ms, p99_ms),
// and solves_per_s is the median over the passes of requests per second
// of pass time. Traced runs add probes that replay the disk path of every
// component from outside: DiskStore::open / load / append, the result
// decode and the oracle re-audit, one span each.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "gapsched/core/transforms.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/store/store.hpp"
#include "gapsched/util/prng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDiskTasks = 96;
constexpr std::size_t kNewTasks = 24;

/// Task i: families in a fixed rotation (bcd, gap_dp, power_dp). The bcd
/// sizes of the disk set and of the new set each cover 1200..2000 in equal
/// strata, one draw per stratum, and the dp sizes cycle through n = 12..16
/// and p = 2..3, so every seed gets the same size mix; shapes are drawn.
Task draw_task(std::uint64_t seed, std::uint64_t i) {
  gapsched::Prng rng(mix_seed(seed, 3, i));
  Task task;
  if (i % 3 == 0) {
    const bool on_disk = i < kDiskTasks;
    const std::uint64_t strata = (on_disk ? kDiskTasks : kNewTasks) / 3;
    const std::uint64_t stratum = (on_disk ? i : i - kDiskTasks) / 3;
    const auto width = static_cast<std::int64_t>(800 / strata);
    const auto n = 1200 + static_cast<std::int64_t>(stratum) * width +
                   rng.uniform(0, width);
    task.solver = "bcd_poly_gap";
    task.bcd = true;
    task.request = make_request(
        *gapsched::scenarios::make_scenario("poly_scale:" + std::to_string(n),
                                            mix_seed(seed, 4, i)),
        engine::Objective::kGaps);
  } else {
    const bool power = i % 3 == 2;
    const std::uint64_t j = i / 3;
    const int p = 2 + static_cast<int>(j / 5 % 2);
    const std::size_t n = 12 + j % 5;
    task.solver = power ? "power_dp" : "gap_dp";
    task.request = make_request(
        gapsched::gen_feasible_one_interval(
            rng, n, 2 * static_cast<gapsched::Time>(n), 3, p),
        power ? engine::Objective::kPower : engine::Objective::kGaps);
  }
  return task;
}

struct Setup {
  /// Pass order: disk and new tasks shuffled together.
  std::vector<Task> tasks;
  std::vector<bool> on_disk;
  std::vector<Reference> refs;
  std::string base_path;
};

bool set_up(const Options& options, Setup* out, std::string* error) {
  std::vector<Task> drawn;
  for (std::uint64_t i = 0; i < kDiskTasks + kNewTasks; ++i) {
    drawn.push_back(draw_task(options.seed, i));
  }
  const std::vector<std::size_t> distinct = assign_refs(drawn);
  if (distinct.size() != drawn.size()) {
    *error = "duplicate instances drawn";
    return false;
  }
  std::vector<std::size_t> order(drawn.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  gapsched::Prng rng(mix_seed(options.seed, 5));
  rng.shuffle(order);
  out->tasks.clear();
  out->on_disk.clear();
  for (std::size_t i : order) {
    out->tasks.push_back(drawn[i]);
    out->tasks.back().ref = out->tasks.size() - 1;
    out->on_disk.push_back(i < kDiskTasks);
  }
  if (!solve_references(out->tasks, &out->refs, error)) return false;

  // Populate: one Engine spills every disk task's answer, then the file
  // must reopen with those records indexed.
  const fs::path dir = fs::path(options.out_dir) / "store_restart";
  std::error_code ec;
  fs::create_directories(dir, ec);
  out->base_path = (dir / "base.store").string();
  fs::remove(out->base_path, ec);
  {
    engine::Engine populate({.threads = 1,
                             .store_path = out->base_path,
                             .store_spill_min_ms = 0.0});
    if (!populate.store_error().empty()) {
      *error = "store did not open: " + populate.store_error();
      return false;
    }
    for (std::size_t i = 0; i < out->tasks.size(); ++i) {
      if (!out->on_disk[i]) continue;
      const Task& task = out->tasks[i];
      const std::string why = check_answer(
          populate.solve(task.solver, task.request), out->refs[task.ref]);
      if (!why.empty()) {
        *error = "populate solve failed: " + why;
        return false;
      }
    }
    populate.flush_store();
  }
  const auto reopened =
      gapsched::store::DiskStore::open(out->base_path, {}, error);
  if (reopened == nullptr || reopened->size() == 0) {
    if (error->empty()) *error = "populated store is empty";
    return false;
  }
  return true;
}

struct PassTotals {
  std::vector<double> ms;          // per solve call, in order
  std::vector<double> pass_rates;  // requests per second of pass time
  double wall_s = 0.0;
  std::size_t passes = 0;
  engine::CacheStats cache;  // summed over passes
};

/// One restart: copy the populated file, then time Engine construction,
/// every request of the pass, and the flush. False (counted as a failure)
/// when the store cannot be copied or opened.
bool run_pass(const Setup& setup, const std::string& copy_path, Tally& tally,
              Tracer& tracer, LayerStats* layer, PassTotals& totals) {
  std::error_code ec;
  fs::copy_file(setup.base_path, copy_path,
                fs::copy_options::overwrite_existing, ec);
  if (ec) {
    tally.fail("store copy failed: " + ec.message());
    return false;
  }
  Span pass(tracer, "engine.restart_pass");
  std::unique_ptr<engine::Engine> eng;
  {
    Span open(tracer, "store.open_engine", pass.index());
    eng = std::make_unique<engine::Engine>(
        engine::EngineOptions{.threads = 1, .store_path = copy_path});
  }
  if (!eng->store_error().empty()) {
    tally.fail("store did not open: " + eng->store_error());
    return false;
  }
  for (const Task& task : setup.tasks) {
    const std::size_t hits_before = eng->cache_stats().disk_hits;
    Span span(tracer, "engine.solve", pass.index());
    const engine::SolveResult r = eng->solve(task.solver, task.request);
    span.close();
    const double ms = span.elapsed_ms();
    const bool disk = eng->cache_stats().disk_hits > hits_before;
    tracer.add_stages(span.index(), span.start_ns(), r.stats, task.bcd, disk,
                      0);
    const std::string why = check_answer(r, setup.refs[task.ref]);
    if (why.empty()) {
      tally.pass();
    } else {
      tally.fail(task.solver + ": " + why);
    }
    if (layer != nullptr) {
      layer->add(r.stats, task.bcd, ms);
      if (!r.audit_error.empty()) layer->add_refuted();
    }
    totals.ms.push_back(ms);
  }
  {
    Span flush(tracer, "store.flush", pass.index());
    eng->flush_store();
  }
  pass.close();
  const engine::CacheStats c = eng->cache_stats();
  if (c.disk_rejects != 0) {
    tally.fail("disk records rejected on an unmodified store");
  }
  totals.cache.disk_hits += c.disk_hits;
  totals.cache.disk_rejects += c.disk_rejects;
  totals.cache.spilled += c.spilled;
  const double wall_s = static_cast<double>(pass.elapsed_ns()) / 1e9;
  totals.wall_s += wall_s;
  totals.pass_rates.push_back(static_cast<double>(setup.tasks.size()) /
                              wall_s);
  ++totals.passes;
  return true;
}

/// Replays the disk path of every component of the disk tasks with the
/// public functions the CacheLookup stage uses, one span each, plus store
/// opens, index misses (the new tasks) and appends to a scratch store.
void run_store_probes(const Setup& setup, const std::string& copy_path,
                      const std::string& scratch_path, Tracer& tracer,
                      Report& report) {
  namespace io = gapsched::io;
  using gapsched::store::DiskStore;
  std::error_code ec;
  std::vector<double> open_ms, load_us, decode_us, audit_us, miss_us,
      append_us;
  std::string error;
  std::unique_ptr<DiskStore> store;
  for (int k = 0; k < 5; ++k) {
    fs::copy_file(setup.base_path, copy_path,
                  fs::copy_options::overwrite_existing, ec);
    store.reset();
    Span s(tracer, "store.open", -1, 0, true);
    store = DiskStore::open(copy_path, {}, &error);
    s.close();
    open_ms.push_back(s.elapsed_ms());
  }
  fs::remove(scratch_path, ec);
  std::unique_ptr<DiskStore> scratch =
      DiskStore::open(scratch_path, {}, &error);
  if (store == nullptr || scratch == nullptr) {
    std::fprintf(stderr, "store_restart: probe store did not open: %s\n",
                 error.c_str());
    return;
  }
  engine::Engine registry_owner({.threads = 1, .cache = false});
  for (std::size_t i = 0; i < setup.tasks.size(); ++i) {
    const Task& task = setup.tasks[i];
    const engine::SolveRequest& req = task.request;
    const engine::Solver* solver = registry_owner.registry().find(task.solver);
    // The pipeline's component route: cut threshold and compression cap
    // per objective (engine/pipeline.cpp).
    const bool power = req.objective == engine::Objective::kPower;
    const auto alpha_ceil =
        static_cast<gapsched::Time>(std::ceil(req.params.alpha));
    gapsched::Time threshold = static_cast<gapsched::Time>(req.instance.n());
    if (power) threshold = std::max(threshold, alpha_ceil);
    const gapsched::Time cap = power ? alpha_ceil + 1 : 1;
    const gapsched::prep::Decomposition dec =
        gapsched::prep::decompose(req.instance, threshold);
    for (const gapsched::prep::Component& comp : dec.components) {
      const gapsched::CompressedInstance ci =
          gapsched::compress_dead_time_capped(comp.instance, cap);
      const engine::CacheKey key = engine::make_cache_key(
          solver->info(), req.objective, req.params, ci.instance);
      Span path(tracer, "store.disk_path", -1, 0, true);
      Span load(tracer, "store.load", path.index(), 0, true);
      const auto payload = store->load(key.digest, key.text);
      load.close();
      if (!setup.on_disk[i]) {
        if (!payload.has_value()) miss_us.push_back(load.elapsed_us());
        continue;
      }
      if (!payload.has_value()) continue;
      load_us.push_back(load.elapsed_us());
      Span decode(tracer, "io.result_from_json", path.index(), 0, true);
      const auto cand = io::result_from_json(*payload);
      decode.close();
      if (!cand.has_value()) continue;
      decode_us.push_back(decode.elapsed_us());
      engine::SolveRequest sub = req;
      sub.instance = ci.instance;
      Span audit(tracer, "oracle.check_result", path.index(), 0, true);
      const std::string refuted =
          gapsched::oracle::check_result(sub, *cand, solver->info().exact);
      audit.close();
      if (refuted.empty()) audit_us.push_back(audit.elapsed_us());
      Span append(tracer, "store.append", -1, 0, true);
      scratch->append(key.digest, key.text, *payload, 1.0);
      append.close();
      append_us.push_back(append.elapsed_us());
    }
  }
  fs::remove(scratch_path, ec);
  const std::string n = "n=" + std::to_string(load_us.size());
  report.add("store.open_ms", mean(open_ms), "ms", "DiskStore::open, n=5");
  report.add("store.load_us", mean(load_us), "us", n);
  report.add("store.decode_us", mean(decode_us), "us", n);
  report.add("store.audit_us", mean(audit_us), "us", n);
  report.add("store.append_us", mean(append_us), "us",
             "append + fsync, n=" + std::to_string(append_us.size()));
  report.add("store.miss_us", mean(miss_us), "us",
             "index miss + tail rescan, n=" + std::to_string(miss_us.size()));
}

}  // namespace

int run_store_restart(const Options& options, Report& report, Tally& tally) {
  Setup setup;
  std::string error;
  std::vector<double> setup_s;
  for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
    const std::int64_t t0 = now_ns();
    if (!set_up(options, &setup, &error)) {
      std::fprintf(stderr, "store_restart: set-up failed: %s\n",
                   error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::string copy_path =
      (fs::path(options.out_dir) / "store_restart" / "pass.store").string();
  const double seconds = options.seconds;


  if (options.trace) {
    // Untraced and traced one-thread passes take turns.
    Tracer off(false);
    Tracer tracer(true);
    LayerStats layer;
    PassTotals plain;
    PassTotals traced;
    while (plain.wall_s + traced.wall_s < seconds &&
           run_pass(setup, copy_path, tally, off, nullptr, plain) &&
           run_pass(setup, copy_path, tally, tracer, &layer, traced)) {
    }
    const double plain_ms = mean(plain.ms);
    const double traced_ms = mean(traced.ms);
    report.add("trace.overhead_ms", traced_ms - plain_ms, "ms",
               "mean traced minus untraced request");
    report.add("trace.overhead_frac", (traced_ms - plain_ms) / plain_ms,
               "ratio");
    report_layer_stats(layer.snapshot(), report);
    const double passes = static_cast<double>(traced.passes);
    report.add("store.disk_hits",
               static_cast<double>(traced.cache.disk_hits) / passes, "count",
               "per pass");
    report.add("store.disk_rejects",
               static_cast<double>(traced.cache.disk_rejects) / passes,
               "count", "per pass");
    report.add("store.spilled",
               static_cast<double>(traced.cache.spilled) / passes, "count",
               "per pass");
    report_self_time(tracer, report);
    run_layer_probes(setup.tasks, tracer, report);
    run_store_probes(
        setup, copy_path,
        (fs::path(options.out_dir) / "store_restart" / "scratch.store")
            .string(),
        tracer, report);
    std::printf("trace %s\n", write_trace(options, tracer).c_str());
  } else {
    report.add("setup_s", median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups");
    Tracer off(false);
    PassTotals totals;
    while (totals.wall_s < seconds &&
           run_pass(setup, copy_path, tally, off, nullptr, totals)) {
    }
    std::printf("passes %zu, disk hits %zu, spilled %zu\n", totals.passes,
                totals.cache.disk_hits, totals.cache.spilled);
    report.add("solves_per_s", median(totals.pass_rates), "1/s",
               "median of " + std::to_string(totals.passes) + " passes");
    report.add("p50_ms", windowed_percentile(totals.ms, 50.0));
    report.add("p99_ms", windowed_percentile(totals.ms, 99.0));
  }
  std::error_code ec;
  fs::remove_all(fs::path(options.out_dir) / "store_restart", ec);
  return 0;
}

}  // namespace perfbench
