#pragma once
// Shared pieces of the three workloads: options, the host fingerprint,
// the reference-answer gate, the per-layer roll-up of SolveStats, the
// layer probes of the traced run, and the metric report whose last line
// is the one-line JSON result.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "json_report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace engine = gapsched::engine;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the run may write files (trace JSON, store copies).
  std::string out_dir = ".bench_out";
};

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

unsigned nproc();
double peak_rss_mb();
/// nproc, compiler, build type, kernel and machine of this run.
gapsched::bench::Json host_fingerprint();

/// `json` printed on one line.
std::string one_line(const gapsched::bench::Json& json);

/// splitmix64: derives independent per-input seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b = 0);

/// One request of a workload: a solver, its request, and the index of its
/// distinct instance in the reference table (repeats share an index).
struct Task {
  std::string solver;
  engine::SolveRequest request;
  /// Long family (bcd_poly_gap): the rest are the short family.
  bool bcd = false;
  std::size_t ref = 0;
};

/// Points every task's `ref` at the first task with the same canonical
/// cache key (the same solver, objective, parameters and canonical
/// instance) and returns the indices of those first tasks, in order.
std::vector<std::size_t> assign_refs(std::vector<Task>& tasks);

/// A request with validate on and the workload's alpha.
engine::SolveRequest make_request(gapsched::Instance instance,
                                  engine::Objective objective);

/// The answer every timed solve of one distinct instance must reproduce.
struct Reference {
  bool feasible = false;
  double cost = 0.0;
};

/// Solves every task once with a cache-off Engine (validate on); (*out)[i]
/// answers tasks[i]. False with *error set when any reference is rejected,
/// timed out or refuted: the workload itself is then unusable.
bool solve_references(const std::vector<Task>& tasks,
                      std::vector<Reference>* out, std::string* error);

/// Why a timed answer fails the gate ("" when it passes): rejected, timed
/// out, not audited, refuted by the oracle, or a cost / feasibility
/// verdict different from the reference.
std::string check_answer(const engine::SolveResult& result,
                         const Reference& ref);

/// Pass/fail tally of the timed requests.
class Tally {
 public:
  void pass();
  void fail(const std::string& why);
  std::size_t attempted() const;
  std::size_t failed() const;
  /// The first few failure reasons, for the log.
  std::vector<std::string> reasons() const;

 private:
  mutable std::mutex mu_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Roll-up of the SolveStats of the traced requests (thread-safe).
class LayerStats {
 public:
  struct Snapshot {
    std::size_t requests = 0;
    double request_ms = 0.0;
    double stage_ms[engine::kPipelineStageCount] = {};
    std::size_t cache_hits = 0;
    std::size_t components = 0;
    std::size_t component_hits = 0;
    std::size_t deduped = 0;
    std::int64_t dead_time_removed = 0;
    std::size_t dp_requests = 0;
    double dp_states = 0.0;
    double dp_find_calls = 0.0;
    double dp_probe_steps = 0.0;
    double dp_pruned = 0.0;
    double dp_parallel = 0.0;
    std::vector<double> dp_dispatch_ms;
    std::size_t bcd_requests = 0;
    double bcd_states = 0.0;
    double bcd_nodes = 0.0;
    std::vector<double> bcd_dispatch_ms;
    std::size_t refuted = 0;
  };

  /// `request_ms` is the caller-side time of the request the stats came
  /// from.
  void add(const engine::SolveStats& stats, bool bcd, double request_ms);
  void add_refuted();
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  Snapshot s_;
};

/// Named metrics of one run, in insertion order; adding a name again
/// replaces its value.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A percentile metric; the note records the percentile used and n.
  void add(const std::string& name, const Percentile& p);

  /// Prints every metric, the host and the tally, then the one-line JSON
  /// result with the metrics BENCHMARK.json declares for this mode.
  /// Returns the exit code: 0 only when every answer passed the gate and
  /// every declared metric was measured.
  int finish(const Options& options, const Tally& tally) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
};

/// Adds the per-layer metrics derivable from a LayerStats snapshot
/// (pipeline, cache, prep counters, dp, bcd, oracle) to `report`.
void report_layer_stats(const LayerStats::Snapshot& s, Report& report);

/// Adds self_share.<layer> for every layer, from the non-probe spans.
void report_self_time(const Tracer& tracer, Report& report);

/// Calls each layer's public functions directly on a sample of `tasks`
/// under probe spans: the io codec, prep::canonicalize / decompose,
/// engine::make_cache_key, SolveCache::lookup, oracle::check_result and a
/// cache-less solver dispatch. Adds the *_us probe metrics.
void run_layer_probes(const std::vector<Task>& tasks, Tracer& tracer,
                      Report& report);

/// Writes the trace as Chrome JSON to options.out_dir/trace_<workload>.json
/// and returns the path.
std::string write_trace(const Options& options, const Tracer& tracer);

int run_serve_mixed(const Options& options, Report& report, Tally& tally);
/// The serve-layer half of serve_mixed's traced run, for `seconds`: the
/// serve.*, loadgen.* and client-side io.* per-layer metrics. Another
/// workload's traced run calls it so the serve layer is measured by a
/// workload BENCHMARK.json lists.
int measure_serve_layer(const Options& options, double seconds,
                        Report& report, Tally& tally);
int run_solve_cold(const Options& options, Report& report, Tally& tally);
int run_store_restart(const Options& options, Report& report, Tally& tally);

}  // namespace perfbench
