// serve/server.hpp — the full serving loop over loopback TCP: mixed bursts
// with costs cross-checked against a local engine, the client reorder
// contract, graceful drain mid-burst, queue-expired deadlines, malformed
// and oversized frames, and stats aggregation. Under the CI sanitizer
// lanes this suite doubles as the thread-safety gate for the whole
// acceptor/reader/shard/writer topology.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/serve/loadgen.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/serve/server.hpp"

namespace gapsched::serve {
namespace {

ServerOptions loopback(std::size_t shards) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.shards = shards;
  return options;
}

engine::SolveRequest scenario_request(const std::string& name,
                                      std::uint64_t seed,
                                      engine::Objective objective) {
  auto instance = scenarios::make_scenario(name, seed);
  EXPECT_TRUE(instance.has_value()) << name;
  engine::SolveRequest request;
  if (instance.has_value()) request.instance = std::move(*instance);
  request.objective = objective;
  request.params.validate = true;
  return request;
}

/// Sends `frames` and collects every response until `expected` result or
/// error frames arrived (hello/stats chatter skipped).
struct Collected {
  std::map<std::int64_t, engine::SolveResult> results;
  /// Error frames in arrival order; ids repeat (unattributable frames all
  /// answer with id -1), so this is not a map.
  std::vector<std::pair<std::int64_t, std::string>> errors;
  std::string transport_error;

  std::size_t errors_for(std::int64_t id) const {
    std::size_t n = 0;
    for (const auto& [eid, message] : errors) n += eid == id ? 1 : 0;
    return n;
  }
};

void exchange(ClientChannel& channel, const std::vector<std::string>& frames,
              std::size_t expected, Collected* got) {
  for (const std::string& frame : frames) {
    if (!channel.send(frame, &got->transport_error)) return;
  }
  while (got->results.size() + got->errors.size() < expected) {
    const auto line = channel.next_frame(&got->transport_error);
    if (!line.has_value()) {
      if (got->transport_error.empty()) got->transport_error = "early EOF";
      return;
    }
    std::string error;
    const auto head = io::frame_head_from_json(*line, &error);
    ASSERT_TRUE(head.has_value()) << error << " in " << *line;
    if (head->frame == "hello" || head->frame == "stats" ||
        head->frame == "drain") {
      continue;
    }
    if (head->frame == "error") {
      got->errors.emplace_back(head->id, head->message);
      continue;
    }
    ASSERT_EQ(head->frame, "result") << *line;
    const auto result = io::result_from_json(*line, &error);
    ASSERT_TRUE(result.has_value()) << error;
    got->results[head->id] = *result;
  }
}

TEST(ServeServer, MixedBurstMatchesTheLocalEngineAndReordersById) {
  Server server(loopback(3));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  struct Case {
    std::string scenario;
    std::string solver;
    engine::Objective objective;
  };
  const std::vector<Case> cases = {
      {"mega_mixed", "gap_dp", engine::Objective::kGaps},
      {"sparse_spread", "gap_dp", engine::Objective::kGaps},
      {"poly_scale:120", "bcd_poly_gap", engine::Objective::kGaps},
      {"stretched:8:power_longhaul", "power_dp", engine::Objective::kPower},
      {"nested_windows", "power_dp", engine::Objective::kPower},
  };

  // The local referee: same registry family, same requests, solved
  // in-process.
  engine::Engine local;
  std::vector<engine::SolveRequest> requests;
  std::vector<double> expected_costs;
  std::vector<bool> expected_feasible;
  std::vector<std::string> frames;
  std::int64_t id = 0;
  for (int round = 0; round < 4; ++round) {
    for (const Case& c : cases) {
      engine::SolveRequest request = scenario_request(
          c.scenario, 100 + static_cast<std::uint64_t>(round), c.objective);
      const engine::Solver* solver = local.registry().find(c.solver);
      ASSERT_NE(solver, nullptr) << c.solver;
      const engine::SolveResult reference = local.solve(*solver, request);
      ASSERT_TRUE(reference.ok) << reference.error;
      EXPECT_TRUE(reference.audit_error.empty()) << reference.audit_error;
      expected_costs.push_back(reference.cost);
      expected_feasible.push_back(reference.feasible);
      frames.push_back(request_frame(id++, c.solver, request));
      requests.push_back(std::move(request));
    }
  }

  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;
  Collected got;
  ASSERT_NO_FATAL_FAILURE(
      exchange(*channel, frames, frames.size(), &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  ASSERT_EQ(got.errors.size(), 0u);
  ASSERT_EQ(got.results.size(), frames.size());
  // Responses streamed in completion order; the id-keyed map IS the
  // client-side reorder. Every id maps back onto its local referee.
  for (std::int64_t i = 0; i < id; ++i) {
    ASSERT_TRUE(got.results.count(i)) << "missing response " << i;
    const engine::SolveResult& remote = got.results[i];
    EXPECT_TRUE(remote.ok) << remote.error;
    EXPECT_EQ(remote.feasible,
              expected_feasible[static_cast<std::size_t>(i)])
        << i;
    EXPECT_DOUBLE_EQ(remote.cost, expected_costs[static_cast<std::size_t>(i)])
        << i;
    EXPECT_TRUE(remote.audit_error.empty()) << remote.audit_error;
  }
  server.drain();
}

TEST(ServeServer, AClosedConnectionsSolveWarmsTheNextConnection) {
  // Every connection is served by the server's one Engine: connection A
  // solves and goes away, and connection B's time-shifted copy of the same
  // request is served from the entry A left in the shared cache.
  Server server(loopback(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const engine::SolveRequest request =
      scenario_request("sparse_spread", 7, engine::Objective::kGaps);

  engine::SolveResult cold;
  {
    auto a = ClientChannel::dial("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(a.has_value()) << error;
    Collected got;
    ASSERT_NO_FATAL_FAILURE(
        exchange(*a, {request_frame(1, "gap_dp", request)}, 1, &got));
    ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
    ASSERT_EQ(got.results.count(1), 1u);
    cold = got.results[1];
    a->close();
  }
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.stats.cache_hit);

  engine::SolveRequest shifted = request;
  for (Job& job : shifted.instance.jobs) {
    job.allowed = job.allowed.shifted(1000);
  }
  auto b = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(b.has_value()) << error;
  Collected got;
  ASSERT_NO_FATAL_FAILURE(
      exchange(*b, {request_frame(2, "gap_dp", shifted)}, 1, &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  ASSERT_EQ(got.results.count(2), 1u);
  const engine::SolveResult& warm = got.results[2];
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.cost, cold.cost);
  // The hit is re-audited against B's own (shifted) instance.
  EXPECT_TRUE(warm.audited);
  EXPECT_TRUE(warm.audit_error.empty()) << warm.audit_error;
  EXPECT_GE(server.stats().cache.hits, 1u);
  server.drain();
}

TEST(ServeServer, LoadgenBurstOverSharedCacheHasNoDropsOrRefutations) {
  Server server(loopback(4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  LoadOptions options;
  options.port = server.port();
  options.connections = 4;
  options.window = 8;
  std::vector<LoadSpec> specs(2);
  specs[0].scenario = "mega_mixed";
  specs[0].solver = "gap_dp";
  specs[0].requests = 80;
  specs[0].seed_base = 11;
  specs[0].duplicate_every = 3;  // canonical duplicates → shared-cache hits
  specs[1].scenario = "stretched:8:power_longhaul";
  specs[1].solver = "power_dp";
  specs[1].objective = engine::Objective::kPower;
  specs[1].requests = 40;
  specs[1].seed_base = 21;
  specs[1].duplicate_every = 4;

  const LoadReport report = run_load(options, specs);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.sent, 120u);
  EXPECT_EQ(report.received, 120u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.refuted, 0u);
  EXPECT_EQ(report.duplicate_ids, 0u);
  EXPECT_EQ(report.unknown_ids, 0u);

  // Stats aggregation: the per-shard tallies must sum to the burst.
  ASSERT_TRUE(report.server_stats_ok);
  std::uint64_t shard_requests = 0;
  std::uint64_t shard_cache_hits = 0;
  for (const io::ShardStatsWire& shard : report.server_stats.shards) {
    shard_requests += shard.requests;
    shard_cache_hits += shard.cache_hits;
    EXPECT_EQ(shard.refuted, 0u);
  }
  EXPECT_EQ(shard_requests, 120u);
  // The duplicates guarantee whole-solve cache hits somewhere.
  EXPECT_GT(shard_cache_hits, 0u);
  EXPECT_GT(report.server_stats.cache.hits, 0u);
  EXPECT_EQ(report.server_stats.pipeline.requests, shard_requests);
  server.drain();
}

TEST(ServeServer, DrainMidBurstCompletesInFlightAndRejectsNew) {
  // One shard so the burst queues deep enough that drain() is still
  // completing accepted work when the late request lands.
  ServerOptions options = loopback(1);
  options.shard_queue = 256;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  // Validated thousand-job bcd solves: a few ms each, serial on the one
  // shard — the drain below spends a long, test-visible window completing
  // them, during which the late request must bounce.
  constexpr int kBurst = 20;
  for (std::int64_t i = 0; i < kBurst; ++i) {
    const engine::SolveRequest request =
        scenario_request("poly_scale:2000", 500 + static_cast<std::uint64_t>(i),
                         engine::Objective::kGaps);
    ASSERT_TRUE(
        channel->send(request_frame(i, "bcd_poly_gap", request), &error))
        << error;
  }
  // Barrier: the reader handles frames serially, so once the stats frame
  // below is answered, every one of the kBurst requests has been ACCEPTED onto
  // the shard — "in flight" in the drain contract's sense. (Without this,
  // requests still sitting unread in the TCP buffer when the drain begins
  // are legitimately rejected as new work.)
  std::map<std::int64_t, engine::SolveResult> results;
  ASSERT_TRUE(channel->send(stats_request_frame(), &error)) << error;
  for (bool synced = false; !synced;) {
    const auto line = channel->next_frame(&error);
    ASSERT_TRUE(line.has_value()) << error;
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "result") {
      // Early finishers can beat the stats reply onto the wire; keep them.
      const auto result = io::result_from_json(*line, &parse_error);
      ASSERT_TRUE(result.has_value()) << parse_error;
      results[head->id] = *result;
    }
    synced = head->frame == "stats";
  }

  std::thread drainer([&] { server.drain(); });
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The server is draining but its reader is still alive: a new request
  // must bounce with a clean error frame, not a hang or a silent close.
  const engine::SolveRequest late =
      scenario_request("sparse_spread", 1, engine::Objective::kGaps);
  const bool late_sent =
      channel->send(request_frame(999, "gap_dp", late), &error);

  bool late_rejected = false;
  for (;;) {
    const auto line = channel->next_frame(&error);
    if (!line.has_value()) break;  // drain finished: EOF
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "hello" || head->frame == "stats") continue;
    if (head->frame == "error") {
      EXPECT_EQ(head->id, 999);
      EXPECT_NE(head->message.find("draining"), std::string::npos)
          << head->message;
      late_rejected = true;
      continue;
    }
    ASSERT_EQ(head->frame, "result");
    const auto result = io::result_from_json(*line, &parse_error);
    ASSERT_TRUE(result.has_value()) << parse_error;
    results[head->id] = *result;
  }
  drainer.join();

  // Every request accepted before the drain completed with a real answer.
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kBurst));
  for (std::int64_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(results.count(i)) << "dropped in-flight request " << i;
    EXPECT_TRUE(results[i].ok) << results[i].error;
  }
  // And the late one was refused explicitly (when its frame still made it
  // onto the wire before the writer closed).
  if (late_sent) {
    EXPECT_TRUE(late_rejected);
  }
}

TEST(ServeServer, DeadlineExpiredInQueueAnswersTimedOutWithoutSolving) {
  // One shard: park a queue of real work in front of the dead-lined
  // request so it expires while waiting.
  Server server(loopback(1));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  std::vector<std::string> frames;
  for (std::int64_t i = 0; i < 10; ++i) {
    frames.push_back(request_frame(
        i, "gap_dp",
        scenario_request("mega_mixed", 900 + static_cast<std::uint64_t>(i),
                         engine::Objective::kGaps)));
  }
  // 0.01 ms: expired long before the shard reaches it.
  frames.push_back(request_frame(
      10, "gap_dp",
      scenario_request("sparse_spread", 2, engine::Objective::kGaps), 0.01));

  Collected got;
  ASSERT_NO_FATAL_FAILURE(exchange(*channel, frames, frames.size(), &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  ASSERT_EQ(got.results.size(), frames.size());
  const engine::SolveResult& expired = got.results[10];
  EXPECT_FALSE(expired.ok);
  EXPECT_TRUE(expired.timed_out);
  EXPECT_NE(expired.error.find("deadline"), std::string::npos)
      << expired.error;
  // The queued-ahead work was untouched by the expiry.
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(got.results[i].ok) << got.results[i].error;
  }
  server.drain();
}

TEST(ServeServer, MalformedFramesDiagnoseAndTheConnectionSurvives) {
  Server server(loopback(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  const std::vector<std::string> frames = {
      "this is not json",                        // parse error
      R"({"id": 5})",                            // no frame discriminator
      R"({"frame": "teleport", "id": 6})",       // unknown frame type
      R"({"frame": "request", "id": -3})",       // bad id
      // A malformed request body (instance must be an object).
      R"({"frame": "request", "id": 7, "solver": "gap_dp", "instance": "zap"})",
      request_frame(8, "no_such_solver",
                    scenario_request("sparse_spread", 3,
                                     engine::Objective::kGaps)),
      // After all that abuse, a well-formed request still answers.
      request_frame(9, "gap_dp",
                    scenario_request("sparse_spread", 3,
                                     engine::Objective::kGaps)),
  };
  Collected got;
  ASSERT_NO_FATAL_FAILURE(exchange(*channel, frames, frames.size(), &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  // Unparseable, untyped, and bad-id frames each answered with their own
  // error frame (unattributable ones under id -1)…
  EXPECT_EQ(got.errors_for(-1), 3u);
  EXPECT_EQ(got.errors_for(6), 1u);
  EXPECT_EQ(got.errors_for(7), 1u);
  // …an unknown solver is a *solved* rejection (it traveled a shard)…
  ASSERT_EQ(got.results.count(8), 1u);
  EXPECT_FALSE(got.results[8].ok);
  // …and the connection still serves real work afterwards.
  ASSERT_EQ(got.results.count(9), 1u);
  EXPECT_TRUE(got.results[9].ok) << got.results[9].error;
  server.drain();
}

TEST(ServeServer, OversizedFramesCloseTheConnectionWithADiagnostic) {
  ServerOptions options = loopback(1);
  options.max_frame_bytes = 2048;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  std::string huge = "{\"frame\": \"request\", \"id\": 1, \"pad\": \"";
  huge.append(8192, 'x');
  huge += "\"}";
  ASSERT_TRUE(channel->send(huge, &error)) << error;

  bool diagnosed = false;
  for (;;) {
    const auto line = channel->next_frame(&error);
    if (!line.has_value()) break;  // server closed the connection
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "error") {
      EXPECT_NE(head->message.find("exceeds"), std::string::npos)
          << head->message;
      diagnosed = true;
    }
  }
  EXPECT_TRUE(diagnosed);
  server.drain();
}

TEST(ServeServer, DrainFrameAcksAndSurfacesTheRequestToTheFrontEnd) {
  Server server(loopback(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_FALSE(server.drain_requested());
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;
  ASSERT_TRUE(channel->send(drain_frame(), &error)) << error;
  bool acked = false;
  while (!acked) {
    const auto line = channel->next_frame(&error);
    ASSERT_TRUE(line.has_value()) << error;
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "drain") acked = true;
  }
  // The front end (gapsched_serve's main) is what reacts to the request.
  EXPECT_TRUE(server.wait_drain_requested(5.0));
  server.drain();
  EXPECT_TRUE(server.draining());
}

}  // namespace
}  // namespace gapsched::serve
