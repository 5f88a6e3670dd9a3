#include "common.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <string_view>
#include <unordered_map>

#include "gapsched/engine/cache.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/prep/prep.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// Metrics BENCHMARK.json declares, by mode. Every name here must be
/// measured by every workload; the result line carries exactly these.
const char* const kEndToEnd[] = {"setup_s", "solves_per_s", "p50_ms",
                                 "p99_ms", "peak_rss_mb"};

const char* const kLayers[] = {"serve", "io",     "engine", "prep",
                               "dp",    "bcd",    "oracle", "store"};

const char* const kStageNames[] = {"canonicalize", "decompose", "compress",
                                   "cache_lookup", "dispatch",  "recombine",
                                   "audit"};

/// Per-layer metric names (--trace 1). Metrics of a layer a workload does
/// not exercise read 0 there.
std::vector<std::string> per_layer_names() {
  std::vector<std::string> out = {
      "serve.overhead_ms.p50", "serve.overhead_ms.p99",
      "serve.shard_imbalance", "serve.frame_bytes.request",
      "serve.frame_bytes.result",
      "io.encode_us.request",  "io.decode_us.request",
      "io.encode_us.result",   "io.decode_us.result"};
  for (const char* stage : kStageNames) {
    out.push_back(std::string("pipeline.") + stage + "_ms");
  }
  for (const char* stage : kStageNames) {
    out.push_back(std::string("pipeline.") + stage + "_share");
  }
  for (const char* name :
       {"cache.hit_ratio", "cache.component_hit_ratio", "cache.deduped",
        "cache.key_us", "cache.lookup_us", "prep.components_per_request",
        "prep.dead_time_removed", "prep.decompose_us", "prep.canonicalize_us",
        "dp.states", "dp.memo_find_calls", "dp.memo_probe_steps",
        "dp.pruned_ratio", "dp.parallel_solves", "dp.dispatch_ms.p50",
        "bcd.states", "bcd.nodes", "bcd.dispatch_ms.p50", "oracle.audit_ms",
        "oracle.refuted", "oracle.check_us", "store.open_ms", "store.load_us",
        "store.decode_us", "store.audit_us", "store.append_us",
        "store.miss_us", "store.disk_hits", "store.disk_rejects",
        "store.spilled", "loadgen.late_ms.p99", "loadgen.backlog_max"}) {
    out.emplace_back(name);
  }
  for (const char* layer : kLayers) {
    out.push_back(std::string("self_share.") + layer);
  }
  out.emplace_back("trace.overhead_ms");
  out.emplace_back("trace.overhead_frac");
  out.emplace_back("failed_frac");
  return out;
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

bool ends_with(const std::string& s, std::string_view tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// The unit BENCHMARK.json declares for a metric, from its name.
std::string unit_of(const std::string& name) {
  if (ends_with(name, "_per_s") || ends_with(name, "_rps")) return "1/s";
  if (ends_with(name, "_mb")) return "MB";
  if (ends_with(name, "_s")) return "s";
  if (ends_with(name, "_us") || name.find("_us.") != std::string::npos) {
    return "us";
  }
  if (ends_with(name, "_ms") || name.find("_ms.") != std::string::npos) {
    return "ms";
  }
  if (name.find("frame_bytes") != std::string::npos) return "bytes";
  if (ends_with(name, "_share") || ends_with(name, "_ratio") ||
      ends_with(name, "_frac") || ends_with(name, "imbalance") ||
      name.rfind("self_share.", 0) == 0) {
    return "ratio";
  }
  return "count";
}

}  // namespace

unsigned nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string one_line(const gapsched::bench::Json& json) {
  std::string out = json.dump(0);
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

gapsched::bench::Json host_fingerprint() {
  utsname uts{};
  uname(&uts);
  return gapsched::bench::Json::object()
      .set("nproc", static_cast<std::int64_t>(nproc()))
      .set("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .set("compiler", PERFBENCH_COMPILER)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("kernel", std::string(uts.sysname) + " " + uts.release)
      .set("machine", uts.machine);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                    (b * 0xC2B2AE3D27D4EB4Full);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

engine::SolveRequest make_request(gapsched::Instance instance,
                                  engine::Objective objective) {
  engine::SolveRequest req;
  req.instance = std::move(instance);
  req.objective = objective;
  req.params.alpha = 2.5;
  req.params.validate = true;
  return req;
}

std::vector<std::size_t> assign_refs(std::vector<Task>& tasks) {
  engine::Engine registry_owner({.threads = 1, .cache = false});
  std::unordered_map<std::string, std::size_t> first;
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Task& task = tasks[i];
    const engine::Solver* solver = registry_owner.registry().find(task.solver);
    std::string key = task.solver;
    if (solver != nullptr) {
      key = engine::make_cache_key(
                solver->info(), task.request.objective, task.request.params,
                gapsched::prep::canonicalize(task.request.instance).instance)
                .text;
    }
    const auto [it, inserted] = first.try_emplace(key, distinct.size());
    if (inserted) distinct.push_back(i);
    task.ref = it->second;
  }
  return distinct;
}

bool solve_references(const std::vector<Task>& tasks,
                      std::vector<Reference>* out, std::string* error) {
  engine::Engine reference({.threads = nproc(), .cache = false});
  std::vector<engine::BatchJob> jobs;
  jobs.reserve(tasks.size());
  for (const Task& task : tasks) jobs.push_back({task.solver, task.request});
  const std::vector<engine::SolveResult> results = reference.solve_batch(jobs);
  out->assign(tasks.size(), Reference{});
  for (std::size_t k = 0; k < results.size(); ++k) {
    const engine::SolveResult& r = results[k];
    if (!r.ok || r.timed_out || !r.audited || !r.audit_error.empty()) {
      *error = "reference solve of task " + std::to_string(k) + " (" +
               jobs[k].solver + ") failed: " + r.error + r.audit_error;
      return false;
    }
    (*out)[k] = {r.feasible, r.cost};
  }
  return true;
}

std::string check_answer(const engine::SolveResult& result,
                         const Reference& ref) {
  if (!result.ok) return "rejected: " + result.error;
  if (result.timed_out) return "timed out";
  if (!result.audited) return "not audited";
  if (!result.audit_error.empty()) return "refuted: " + result.audit_error;
  if (result.feasible != ref.feasible) return "feasibility differs";
  if (result.cost != ref.cost) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "cost %.17g, reference %.17g", result.cost,
                  ref.cost);
    return buf;
  }
  return "";
}

void Tally::pass() {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
}

void Tally::fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

std::size_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::size_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Tally::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

void LayerStats::add(const engine::SolveStats& stats, bool bcd,
                     double request_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.requests;
  s_.request_ms += request_ms;
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    if (stats.stages[i].ran) s_.stage_ms[i] += stats.stages[i].ms;
  }
  if (stats.cache_hit) ++s_.cache_hits;
  s_.components += stats.components;
  s_.component_hits += stats.component_cache_hits;
  s_.deduped += stats.components_deduped;
  s_.dead_time_removed += stats.dead_time_removed;
  const auto& dispatch =
      stats.stages[static_cast<std::size_t>(engine::PipelineStage::kDispatch)];
  if (bcd) {
    ++s_.bcd_requests;
    s_.bcd_states += static_cast<double>(stats.states);
    s_.bcd_nodes += static_cast<double>(stats.nodes);
    if (dispatch.ran) s_.bcd_dispatch_ms.push_back(dispatch.ms);
  } else {
    ++s_.dp_requests;
    s_.dp_states += static_cast<double>(stats.states);
    s_.dp_find_calls += static_cast<double>(stats.memo_find_calls);
    s_.dp_probe_steps += static_cast<double>(stats.memo_probe_steps);
    s_.dp_pruned += static_cast<double>(stats.memo_pruned);
    s_.dp_parallel += static_cast<double>(stats.memo_parallel_solves);
    if (dispatch.ran) s_.dp_dispatch_ms.push_back(dispatch.ms);
  }
}

void LayerStats::add_refuted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.refuted;
}

LayerStats::Snapshot LayerStats::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return s_;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, note};
      return;
    }
  }
  metrics_.push_back({name, value, unit, note});
}

void Report::add(const std::string& name, const Percentile& p) {
  char note[96];
  if (p.windows > 1) {
    std::snprintf(note, sizeof note, "p%g of n=%zu, median of %zu windows",
                  p.q, p.n, p.windows);
  } else {
    std::snprintf(note, sizeof note, "p%g of n=%zu", p.q, p.n);
  }
  add(name, p.value, "ms", note);
}

int Report::finish(const Options& options, const Tally& tally) const {
  std::printf("host %s\n", one_line(host_fingerprint()).c_str());
  for (const Metric& m : metrics_) {
    std::printf("metric %-30s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const double failed_frac =
      safe_div(static_cast<double>(tally.failed()),
               static_cast<double>(tally.attempted()));
  std::printf("tally attempted %zu failed %zu failed_frac %.6f\n",
              tally.attempted(), tally.failed(), failed_frac);
  for (const std::string& why : tally.reasons()) {
    std::printf("failure %s\n", why.c_str());
  }

  std::vector<std::string> names;
  if (options.trace) {
    names = per_layer_names();
  } else {
    for (const char* n : kEndToEnd) names.emplace_back(n);
  }
  int code = 0;
  std::string body;
  for (const std::string& name : names) {
    const Metric* found = nullptr;
    for (const Metric& m : metrics_) {
      if (m.name == name) found = &m;
    }
    double value = 0.0;
    const std::string unit = unit_of(name);
    if (found != nullptr) {
      value = found->value;
      if (found->unit != unit) {
        std::fprintf(stderr, "perfbench: %s measured in %s, declared %s\n",
                     name.c_str(), found->unit.c_str(), unit.c_str());
        code = 1;
      }
    } else if (name == "failed_frac") {
      value = failed_frac;
    } else if (!options.trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   name.c_str());
      code = 1;
    }
    if (!std::isfinite(value)) value = 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", name.c_str(), value, unit.c_str());
    body += buf;
  }
  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  if (!correct) code = 1;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", tally.attempted(), tally.failed(),
              body.c_str());
  std::fflush(stdout);
  return code;
}

void report_layer_stats(const LayerStats::Snapshot& s, Report& report) {
  const double n = static_cast<double>(s.requests);
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    const std::string stage = kStageNames[i];
    report.add("pipeline." + stage + "_ms", safe_div(s.stage_ms[i], n), "ms",
               "mean per request");
    report.add("pipeline." + stage + "_share",
               safe_div(s.stage_ms[i], s.request_ms), "ratio",
               "of request time");
  }
  report.add("cache.hit_ratio", safe_div(static_cast<double>(s.cache_hits), n),
             "ratio", "whole answers served by the cache");
  report.add("cache.component_hit_ratio",
             safe_div(static_cast<double>(s.component_hits),
                      static_cast<double>(s.components)),
             "ratio");
  report.add("cache.deduped", safe_div(static_cast<double>(s.deduped), n),
             "count", "per request");
  report.add("prep.components_per_request",
             safe_div(static_cast<double>(s.components), n), "count");
  report.add("prep.dead_time_removed",
             safe_div(static_cast<double>(s.dead_time_removed), n), "count",
             "time units per request");
  const double dpn = static_cast<double>(s.dp_requests);
  report.add("dp.states", safe_div(s.dp_states, dpn), "count",
             "per dp request");
  report.add("dp.memo_find_calls", safe_div(s.dp_find_calls, dpn), "count",
             "per dp request");
  report.add("dp.memo_probe_steps", safe_div(s.dp_probe_steps, dpn), "count",
             "per dp request");
  report.add("dp.pruned_ratio",
             safe_div(s.dp_pruned, s.dp_pruned + s.dp_find_calls), "ratio",
             "pruned / (pruned + memo finds)");
  report.add("dp.parallel_solves", safe_div(s.dp_parallel, dpn), "count",
             "per dp request");
  std::vector<double> dp_ms = s.dp_dispatch_ms;
  report.add("dp.dispatch_ms.p50", median(dp_ms), "ms",
             "n=" + std::to_string(dp_ms.size()));
  const double bn = static_cast<double>(s.bcd_requests);
  report.add("bcd.states", safe_div(s.bcd_states, bn), "count",
             "per bcd request");
  report.add("bcd.nodes", safe_div(s.bcd_nodes, bn), "count",
             "per bcd request");
  std::vector<double> bcd_ms = s.bcd_dispatch_ms;
  report.add("bcd.dispatch_ms.p50", median(bcd_ms), "ms",
             "n=" + std::to_string(bcd_ms.size()));
  report.add("oracle.audit_ms",
             safe_div(s.stage_ms[static_cast<std::size_t>(
                          engine::PipelineStage::kAudit)],
                      n),
             "ms", "mean per request");
  report.add("oracle.refuted", static_cast<double>(s.refuted), "count");
}

void report_self_time(const Tracer& tracer, Report& report) {
  const std::map<std::string, double> self = tracer.self_ns_by_layer();
  double total = 0.0;
  for (const auto& [layer, ns] : self) total += ns;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    report.add(std::string("self_share.") + layer,
               safe_div(it == self.end() ? 0.0 : it->second, total), "ratio",
               "of traced request self time");
  }
}

void run_layer_probes(const std::vector<Task>& tasks, Tracer& tracer,
                      Report& report) {
  namespace io = gapsched::io;
  namespace prep = gapsched::prep;
  constexpr std::size_t kSample = 200;
  engine::Engine plain({.threads = 1, .cache = false});
  engine::SolveCache cache(0);
  std::vector<double> enc_req, dec_req, enc_res, dec_res, canon, decomp, key,
      lookup, check;
  const std::size_t step = std::max<std::size_t>(1, tasks.size() / kSample);
  for (std::size_t i = 0; i < tasks.size(); i += step) {
    const Task& task = tasks[i];
    const engine::Solver* solver = plain.registry().find(task.solver);
    if (solver == nullptr) continue;
    const engine::SolveRequest& req = task.request;

    std::string text;
    {
      Span s(tracer, "io.request_to_json", -1, 0, true);
      text = io::request_to_json(task.solver, req);
      s.close();
      enc_req.push_back(s.elapsed_us());
    }
    {
      std::string name;
      Span s(tracer, "io.request_from_json", -1, 0, true);
      const auto parsed = io::request_from_json(text, &name);
      s.close();
      if (parsed.has_value()) dec_req.push_back(s.elapsed_us());
    }
    prep::Canonical canonical;
    {
      Span s(tracer, "prep.canonicalize", -1, 0, true);
      canonical = prep::canonicalize(req.instance);
      s.close();
      canon.push_back(s.elapsed_us());
    }
    {
      const gapsched::Time threshold =
          static_cast<gapsched::Time>(req.instance.n());
      Span s(tracer, "prep.decompose", -1, 0, true);
      const prep::Decomposition dec = prep::decompose(req.instance, threshold);
      s.close();
      decomp.push_back(s.elapsed_us());
    }
    engine::CacheKey k;
    {
      Span s(tracer, "engine.make_cache_key", -1, 0, true);
      k = engine::make_cache_key(solver->info(), req.objective, req.params,
                                 canonical.instance);
      s.close();
      key.push_back(s.elapsed_us());
    }
    engine::SolveResult result;
    {
      Span s(tracer, task.bcd ? "bcd.solve" : "dp.solve", -1, 0, true);
      result = solver->solve(req);
    }
    cache.insert(k, result);
    {
      Span s(tracer, "engine.cache_lookup", -1, 0, true);
      const auto hit = cache.lookup(k);
      s.close();
      if (hit != nullptr) lookup.push_back(s.elapsed_us());
    }
    {
      Span s(tracer, "oracle.check_result", -1, 0, true);
      const std::string err =
          gapsched::oracle::check_result(req, result, solver->info().exact);
      s.close();
      check.push_back(s.elapsed_us());
    }
    {
      Span s(tracer, "io.result_to_json", -1, 0, true);
      text = io::result_to_json(result);
      s.close();
      enc_res.push_back(s.elapsed_us());
    }
    {
      Span s(tracer, "io.result_from_json", -1, 0, true);
      const auto parsed = io::result_from_json(text);
      s.close();
      if (parsed.has_value()) dec_res.push_back(s.elapsed_us());
    }
  }
  const std::string note = "probe mean, n=" + std::to_string(enc_req.size());
  report.add("io.encode_us.request", mean(enc_req), "us", note);
  report.add("io.decode_us.request", mean(dec_req), "us", note);
  report.add("io.encode_us.result", mean(enc_res), "us", note);
  report.add("io.decode_us.result", mean(dec_res), "us", note);
  report.add("prep.canonicalize_us", mean(canon), "us", note);
  report.add("prep.decompose_us", mean(decomp), "us", note);
  report.add("cache.key_us", mean(key), "us", note);
  report.add("cache.lookup_us", mean(lookup), "us", note);
  report.add("oracle.check_us", mean(check), "us", note);
}

std::string write_trace(const Options& options, const Tracer& tracer) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  // One file per workload, replaced by each traced run, so repeated runs
  // do not pile up traces of tens of megabytes.
  const std::string path =
      options.out_dir + "/trace_" + options.workload + ".json";
  const gapsched::bench::Json meta =
      gapsched::bench::Json::object()
          .set("workload", options.workload)
          .set("seed", static_cast<std::int64_t>(options.seed))
          .set("seconds", options.seconds)
          .set("dropped_spans", tracer.dropped())
          .set("host", host_fingerprint());
  if (!tracer.write_chrome(path, meta)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  return path;
}

}  // namespace perfbench
