// T11 — the serving stack under a mixed loopback burst: an in-process
// gapsched_serve endpoint (sharded, every connection served by one Engine
// and its SolveCache) driven by the loadgen client at >= 5k requests across the
// three solver families: mega_mixed/gap_dp (exact window DP on mixed
// catalog draws), poly_scale/bcd_poly_gap (the polynomial [BCD07] family
// at n in the hundreds), and stretched power_longhaul/power_dp (the
// power-objective DP, alpha = 2.5). Every request carries
// params.validate = true, so each answer survives the server-side oracle
// audit; every 4th-ish request reuses its family's base seed, giving
// canonical-identical traffic that must route to a single shard and dedup
// in the shared cache.
//
// What the table and BENCH_tab11.json pin: per-family latency order
// statistics (p50/p95/p99 over the sliding-window round trip), whole-burst
// throughput, per-shard request/cache-hit tallies from the server's own
// stats frame, and the reorder evidence — responses observed out of
// submission order, proving the completion-order stream is real and the
// client-side id reorder is doing work.
//
// The lane is a correctness gate like T9/T10: exit is non-zero on any
// drop (request without a response), oracle refutation, protocol error
// (unknown/duplicate id, error frame answering a well-formed request), or
// a burst that never reordered anything (window 16 over heterogeneous
// latencies makes in-order completion of every response implausible).

#include "bench_common.hpp"
#include "json_report.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "gapsched/serve/loadgen.hpp"
#include "gapsched/serve/server.hpp"

using namespace gapsched;

namespace {

serve::LoadSpec family(std::string scenario, std::string solver,
                       engine::Objective objective, std::size_t requests,
                       std::uint64_t seed_base, std::size_t duplicate_every,
                       double alpha = 0.0) {
  serve::LoadSpec spec;
  spec.scenario = std::move(scenario);
  spec.solver = std::move(solver);
  spec.objective = objective;
  spec.requests = requests;
  spec.seed_base = seed_base;
  spec.duplicate_every = duplicate_every;
  if (alpha > 0.0) spec.params.alpha = alpha;
  return spec;
}

}  // namespace

int main(int, char**) {
  bench::banner("T11 (serve load)",
                "sharded JSON solve server: >= 5k validated mixed requests "
                "over loopback, zero drops, zero refutations, reordered");

  serve::ServerOptions options;
  options.shards = 4;
  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "T11: server failed to start: %s\n", error.c_str());
    return 1;
  }

  // 5120 requests: half cheap exact DP traffic, the rest split between the
  // polynomial bcd family (hundreds of jobs per instance) and the power DP.
  std::vector<serve::LoadSpec> specs;
  specs.push_back(family("mega_mixed", "gap_dp", engine::Objective::kGaps,
                         2560, 11000, 4));
  specs.push_back(family("poly_scale:300", "bcd_poly_gap",
                         engine::Objective::kGaps, 1280, 12000, 5));
  specs.push_back(family("stretched:16:power_longhaul", "power_dp",
                         engine::Objective::kPower, 1280, 13000, 4,
                         /*alpha=*/2.5));

  serve::LoadOptions load;
  load.port = server.port();
  load.connections = 6;
  load.window = 16;
  const serve::LoadReport report = serve::run_load(load, specs);
  server.drain();

  if (!report.error.empty()) {
    std::fprintf(stderr, "T11: burst failed: %s\n", report.error.c_str());
    return 1;
  }

  std::printf("%-40s %8s %9s %9s %9s %9s\n", "family", "n", "p50 ms",
              "p95 ms", "p99 ms", "max ms");
  for (const serve::FamilyReport& fam : report.families) {
    std::printf("%-40s %8zu %9.3f %9.3f %9.3f %9.3f\n", fam.label.c_str(),
                fam.latency.count, fam.latency.p50_ms, fam.latency.p95_ms,
                fam.latency.p99_ms, fam.latency.max_ms);
  }
  std::printf("\nburst: %llu sent, %llu received, %llu dropped, "
              "%llu refuted, %llu out-of-order, %.2f s wall, %.0f req/s\n",
              static_cast<unsigned long long>(report.sent),
              static_cast<unsigned long long>(report.received),
              static_cast<unsigned long long>(report.dropped),
              static_cast<unsigned long long>(report.refuted),
              static_cast<unsigned long long>(report.out_of_order),
              report.wall_s, report.throughput_rps);
  if (report.server_stats_ok) {
    for (const io::ShardStatsWire& shard : report.server_stats.shards) {
      const double hit_rate =
          shard.requests > 0
              ? static_cast<double>(shard.cache_hits) /
                    static_cast<double>(shard.requests)
              : 0.0;
      std::printf("shard %lld: %llu requests, %llu cache hits (%.1f%%)\n",
                  static_cast<long long>(shard.shard),
                  static_cast<unsigned long long>(shard.requests),
                  static_cast<unsigned long long>(shard.cache_hits),
                  100.0 * hit_rate);
    }
  }

  bench::Json families = bench::Json::array();
  for (const serve::FamilyReport& fam : report.families) {
    families.push(bench::Json::object()
                      .set("family", fam.label)
                      .set("requests", fam.sent)
                      .set("received", fam.received)
                      .set("ok", fam.ok)
                      .set("infeasible", fam.infeasible)
                      .set("refuted", fam.refuted)
                      .set("p50_ms", fam.latency.p50_ms)
                      .set("p95_ms", fam.latency.p95_ms)
                      .set("p99_ms", fam.latency.p99_ms)
                      .set("mean_ms", fam.latency.mean_ms)
                      .set("max_ms", fam.latency.max_ms));
  }
  bench::Json shards = bench::Json::array();
  if (report.server_stats_ok) {
    for (const io::ShardStatsWire& shard : report.server_stats.shards) {
      shards.push(
          bench::Json::object()
              .set("shard", shard.shard)
              .set("requests", shard.requests)
              .set("cache_hits", shard.cache_hits)
              .set("component_cache_hits", shard.component_cache_hits)
              .set("refuted", shard.refuted)
              .set("cache_hit_rate",
                   shard.requests > 0
                       ? static_cast<double>(shard.cache_hits) /
                             static_cast<double>(shard.requests)
                       : 0.0));
    }
  }
  bench::Json root =
      bench::Json::object()
          .set("experiment", "tab11_serve_load")
          .set("connections", load.connections)
          .set("window", load.window)
          .set("shards", static_cast<std::int64_t>(server.shards()))
          .set("sent", report.sent)
          .set("received", report.received)
          .set("dropped", report.dropped)
          .set("refuted", report.refuted)
          .set("error_frames", report.error_frames)
          .set("duplicate_ids", report.duplicate_ids)
          .set("unknown_ids", report.unknown_ids)
          .set("out_of_order", report.out_of_order)
          .set("wall_s", report.wall_s)
          .set("throughput_rps", report.throughput_rps)
          .set("cache",
               bench::Json::object()
                   .set("hits", report.server_stats.cache.hits)
                   .set("misses", report.server_stats.cache.misses)
                   .set("entries", report.server_stats.cache.entries))
          .set("families", std::move(families))
          .set("per_shard", std::move(shards));
  bench::emit_json("tab11", root);

  int failures = 0;
  if (!report.ok) {
    std::fprintf(stderr, "T11 FAIL: burst verdict not ok (%s)\n",
                 report.error.empty() ? "drops/refutations/protocol"
                                      : report.error.c_str());
    ++failures;
  }
  if (report.out_of_order == 0) {
    std::fprintf(stderr,
                 "T11 FAIL: no response ever arrived out of submission "
                 "order — the completion-order stream is not exercised\n");
    ++failures;
  }
  if (!report.server_stats_ok) {
    std::fprintf(stderr, "T11 FAIL: server stats frame missing\n");
    ++failures;
  } else if (report.server_stats.cache.hits == 0) {
    std::fprintf(stderr,
                 "T11 FAIL: duplicate traffic produced zero cache hits\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("\nT11 PASS: %llu/%llu answered, 0 dropped, 0 refuted\n",
                static_cast<unsigned long long>(report.received),
                static_cast<unsigned long long>(report.sent));
  }
  return failures == 0 ? 0 : 1;
}
