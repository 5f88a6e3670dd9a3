#pragma once
// JSON codec for the solver engine: the one wire representation shared by
// `solver_cli --json`, the server frames, the disk store payloads, and the
// benches, so every consumer reads and writes the same documents.
//
// Each wire struct is declared once, as a field table in json.cpp; the
// tables are the schema. Every document is one compact object, e.g.
//   {"gapsched":"request","solver":"power_dp","objective":"power",
//    "params":{"alpha":2.5,"max_spans":1,...,"compress":true},
//    "instance":{"processors":1,"jobs":[[[0,5]],[[2,3],[8,9]]]}}
// (a job is its list of inclusive [lo, hi] intervals; a result's schedule
// lists only scheduled jobs, processor -1 meaning profile form).
//
// The readers accept any standard JSON text, including the indented form
// earlier builds wrote, with one set of rules: a missing field keeps its
// default, a value of the wrong type is an error naming the field, an
// unsigned field rejects negatives, every integer must fit its field, and
// unknown fields are ignored. Failures return nullopt with *error set.
// Non-finite doubles degrade to null on write, matching
// bench/json_report.hpp.
//
// A reader builds no tree: it walks the text once, checking the syntax of
// every byte (unknown fields included) while it fills the struct, so its
// cost is linear in the document. A syntax error anywhere wins over a
// field error, and when several fields are bad the first in the table is
// the one named.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/pipeline.hpp"
#include "gapsched/engine/types.hpp"

namespace gapsched::io {

/// Deepest accepted nesting of any document on the wire. The reader takes
/// untrusted socket bytes (serve/protocol.hpp), so recursion depth is a
/// resource limit, not a style choice: a document nested deeper than this
/// is rejected with a clean parse error instead of recursing toward a
/// stack overflow. Engine documents nest 6 levels; 64 leaves an order of
/// magnitude of headroom.
inline constexpr int kMaxParseDepth = 64;

/// Serializes a named engine request.
std::string request_to_json(std::string_view solver,
                            const engine::SolveRequest& request);

/// Parses a request document; fills *solver with the "solver" field.
std::optional<engine::SolveRequest> request_from_json(
    std::string_view text, std::string* solver, std::string* error = nullptr);

/// Serializes an engine result.
std::string result_to_json(const engine::SolveResult& result);

/// Parses a result document.
std::optional<engine::SolveResult> result_from_json(
    std::string_view text, std::string* error = nullptr);

// ----------------------------------------------------- stats documents --
// One codec for every tally the engine exposes: the server's `stats`
// frame, `solver_cli --cache-stats`, and the benches all read and write
// these documents instead of ad-hoc printing. Per-stage maps may list any
// subset of stages, but an unknown stage name is an error.

/// Serializes SolveCache tallies ({"gapsched":"cache_stats","hits":0,...}).
std::string cache_stats_to_json(const engine::CacheStats& stats);
std::optional<engine::CacheStats> cache_stats_from_json(
    std::string_view text, std::string* error = nullptr);

/// Serializes an Engine's per-stage pipeline roll-up ({"gapsched":
/// "pipeline_stats","requests":0,"stages":{"canonicalize":{"runs":0,...}}}).
std::string pipeline_stats_to_json(
    const engine::pipeline::PipelineStats& stats);
std::optional<engine::pipeline::PipelineStats> pipeline_stats_from_json(
    std::string_view text, std::string* error = nullptr);

/// One worker shard's roll-up on the wire (serve/shard.hpp fills it).
struct ShardStatsWire {
  std::int64_t shard = 0;
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t refuted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t component_cache_hits = 0;
  engine::pipeline::PipelineStats pipeline;
};

/// The server `stats` frame body: the shared cache's tallies, the
/// aggregate pipeline roll-up, and one entry per worker shard.
struct ServerStatsWire {
  engine::CacheStats cache;
  engine::pipeline::PipelineStats pipeline;
  std::vector<ShardStatsWire> shards;
};

std::string server_stats_to_json(const ServerStatsWire& stats);
std::optional<ServerStatsWire> server_stats_from_json(
    std::string_view text, std::string* error = nullptr);

// ---------------------------------------------------------------- frames --
// serve/protocol.hpp frames are ordinary documents of this codec with a
// routing header ("frame", "id", "deadline_ms", "message") written first,
// at the same top level as the body. The header is parsed here so the
// server and every client agree on one reader; the body goes through the
// matching *_from_json above, which ignores the header fields like any
// other extras.

struct FrameHead {
  /// Frame type: "hello", "request", "result", "stats", "drain", "error".
  std::string frame;
  /// Request/response correlation id; -1 when the frame carries none.
  std::int64_t id = -1;
  /// Per-request deadline in milliseconds from receipt; 0 disables it.
  double deadline_ms = 0.0;
  /// Human-readable diagnostic of an "error" frame.
  std::string message;
};

/// The body of the server's greeting frame.
struct HelloWire {
  std::string server;
  std::int64_t protocol = 0;
  std::uint64_t shards = 0;
  std::uint64_t solvers = 0;
};

/// One frame line: the header's fields that differ from a default
/// FrameHead, then the body document's fields (none for a bare header).
std::string frame_to_json(const FrameHead& head);
std::string frame_to_json(const FrameHead& head, const HelloWire& hello);
std::string frame_to_json(const FrameHead& head, std::string_view solver,
                          const engine::SolveRequest& request);
std::string frame_to_json(const FrameHead& head,
                          const engine::SolveResult& result);
std::string frame_to_json(const FrameHead& head,
                          const ServerStatsWire& stats);

/// Parses the routing header of one frame. Fails on documents without a
/// string "frame" field, negative deadlines, or non-integer ids.
std::optional<FrameHead> frame_head_from_json(std::string_view text,
                                              std::string* error = nullptr);

}  // namespace gapsched::io
