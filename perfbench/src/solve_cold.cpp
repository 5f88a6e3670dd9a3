// solve_cold: a closed loop of engine::Engine solves with production
// options (cache on, validate on) on distinct dense instances, so every
// cache lookup misses and the exact solvers do the work: multiprocessor
// gap_dp / power_dp (p = 2..4, n = 10..16) beside p = 1 bcd_poly_gap on
// poly_scale:600..1200 chains. Each pass over the instance list gets a
// fresh Engine, so no instance repeats within one engine's lifetime.
//
// One client thread, as the timed loop: every request is one solve call
// (p50_ms, p99_ms), and solves_per_s is the median over the run's
// kSliceS slices of verified solves per second. The engine still uses its
// own pools: the dense dp solves scan their roots on dp_pool.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/util/prng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kInstances = 1200;
constexpr double kSliceS = 1.0;

/// One bcd instance in ten, the rest split evenly between gap_dp and
/// power_dp; sizes and shapes are drawn, the family counts are fixed.
std::vector<Task> make_tasks(std::uint64_t seed) {
  std::vector<Task> tasks;
  for (std::uint64_t i = 0; tasks.size() < kInstances; ++i) {
    gapsched::Prng rng(mix_seed(seed, 1, i));
    const std::uint64_t slot = i % 20;
    Task task;
    if (slot < 2) {
      const auto n = rng.uniform(600, 1200);
      task.solver = "bcd_poly_gap";
      task.bcd = true;
      task.request = make_request(
          *gapsched::scenarios::make_scenario(
              "poly_scale:" + std::to_string(n), mix_seed(seed, 2, i)),
          engine::Objective::kGaps);
    } else {
      const bool power = slot >= 11;
      const int p = static_cast<int>(rng.uniform(2, power ? 3 : 4));
      const auto n = static_cast<std::size_t>(rng.uniform(10, 16));
      task.solver = power ? "power_dp" : "gap_dp";
      task.request = make_request(
          gapsched::gen_feasible_one_interval(
              rng, n, 2 * static_cast<gapsched::Time>(n), 3, p),
          power ? engine::Objective::kPower : engine::Objective::kGaps);
    }
    tasks.push_back(std::move(task));
  }
  gapsched::Prng order(mix_seed(seed, 6));
  order.shuffle(tasks);
  return tasks;
}

struct Setup {
  std::vector<Task> tasks;
  std::vector<Reference> refs;
};

/// Draws the instances, drops canonical duplicates (every solve must
/// miss), and solves the references.
bool set_up(std::uint64_t seed, Setup* out, std::string* error) {
  std::vector<Task> drawn = make_tasks(seed);
  const std::vector<std::size_t> distinct = assign_refs(drawn);
  out->tasks.clear();
  for (std::size_t i : distinct) {
    out->tasks.push_back(std::move(drawn[i]));
    out->tasks.back().ref = out->tasks.size() - 1;
  }
  return solve_references(out->tasks, &out->refs, error);
}

struct StepResult {
  std::vector<double> ms;  // per solve call, in order
  double wall_s = 0.0;
};

/// Solves for `seconds` from one thread, continuing the instance list at
/// `*cursor`. Every pass over the list (and every call of this function)
/// gets a fresh Engine, so no instance repeats within one engine's life.
StepResult run_step(const Setup& setup, double seconds, std::size_t* cursor,
                    Tally& tally, Tracer& tracer, LayerStats* layer) {
  const std::size_t n = setup.tasks.size();
  std::unique_ptr<engine::Engine> eng;
  std::size_t pass = 0;
  StepResult out;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::size_t i = (*cursor)++;
    if (eng == nullptr || i / n != pass) {
      pass = i / n;
      eng = std::make_unique<engine::Engine>(
          engine::EngineOptions{.threads = 1});
    }
    const Task& task = setup.tasks[i % n];
    Span span(tracer, "engine.solve");
    const engine::SolveResult r = eng->solve(task.solver, task.request);
    span.close();
    const double ms = span.elapsed_ms();
    tracer.add_stages(span.index(), span.start_ns(), r.stats, task.bcd, false,
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
    out.ms.push_back(ms);
  }
  out.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return out;
}

}  // namespace

int run_solve_cold(const Options& options, Report& report, Tally& tally) {
  Setup setup;
  std::string error;
  std::vector<double> setup_s;
  for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
    const std::int64_t t0 = now_ns();
    if (!set_up(options.seed, &setup, &error)) {
      std::fprintf(stderr, "solve_cold: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::printf("solve_cold: %zu distinct instances, %zu bcd\n",
              setup.tasks.size(),
              static_cast<std::size_t>(std::count_if(
                  setup.tasks.begin(), setup.tasks.end(),
                  [](const Task& t) { return t.bcd; })));
  const double seconds = options.seconds;

  std::vector<double> ms;
  if (options.trace) {
    // Untraced and traced slices take turns.
    Tracer off(false);
    Tracer tracer(true);
    LayerStats layer;
    std::vector<double> traced_ms;
    std::size_t plain_cursor = 0;
    std::size_t traced_cursor = 0;
    const long rounds = std::max(1L, std::lround(seconds / (2 * kSliceS)));
    for (long r = 0; r < rounds; ++r) {
      const StepResult p =
          run_step(setup, kSliceS, &plain_cursor, tally, off, nullptr);
      const StepResult t =
          run_step(setup, kSliceS, &traced_cursor, tally, tracer, &layer);
      ms.insert(ms.end(), p.ms.begin(), p.ms.end());
      traced_ms.insert(traced_ms.end(), t.ms.begin(), t.ms.end());
    }
    const double plain_mean = mean(ms);
    const double traced_mean = mean(traced_ms);
    report.add("trace.overhead_ms", traced_mean - plain_mean, "ms",
               "mean traced minus untraced request");
    report.add("trace.overhead_frac", (traced_mean - plain_mean) / plain_mean,
               "ratio");
    report_layer_stats(layer.snapshot(), report);
    report_self_time(tracer, report);
    run_layer_probes(setup.tasks, tracer, report);
    std::printf("trace %s\n", write_trace(options, tracer).c_str());
    // serve_mixed's open loop, whose latencies swing too far between
    // minutes on shared hosts for an end-to-end bound, is measured here.
    return measure_serve_layer(options, seconds / 2, report, tally);
  }

  report.add("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups");
  std::vector<double> slice_rates;
  std::size_t cursor = 0;
  for (double spent = 0.0; spent < seconds; spent += kSliceS) {
    Tracer off(false);
    const StepResult step = run_step(setup, kSliceS, &cursor, tally, off,
                                     nullptr);
    ms.insert(ms.end(), step.ms.begin(), step.ms.end());
    slice_rates.push_back(static_cast<double>(step.ms.size()) / step.wall_s);
  }
  report.add("solves_per_s", median(slice_rates), "1/s",
             "median of " + std::to_string(slice_rates.size()) + " slices");
  report.add("p50_ms", windowed_percentile(ms, 50.0));
  report.add("p99_ms", windowed_percentile(ms, 99.0));
  return 0;
}

}  // namespace perfbench
