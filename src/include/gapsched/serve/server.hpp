#pragma once
// gapsched::serve::Server — the long-lived network front end over one
// engine::Engine.
//
// Topology (one process):
//
//   acceptor thread ──► per-connection reader ──► shard queues (bounded)
//                                                   │  N worker shards,
//                                                   │  routed by
//                                                   │  canonical-key hash
//                                                   ▼
//                       per-connection writer ◄── result frames
//                         (bounded outbound queue, completion order)
//
// One Engine — its registry, its content-addressed SolveCache (plus the
// optional disk store), and its pool for component fan-out — serves every
// connection; shard tasks call Engine::solve. Requests travel the shard
// whose index is the canonical-key hash of their content, so identical
// (post-canonicalization) instances execute serially on one worker and
// dedup in the shared cache instead of racing.
//
// Backpressure: both queues are bounded. A slow shard blocks the readers
// feeding it; a slow client blocks the shard workers trying to deliver to
// it; blocked readers stop draining the TCP window. Nothing in the server
// buffers without bound.
//
// Graceful drain (SIGTERM in gapsched_serve, or a client "drain" frame):
// stop accepting connections, reject new request frames with an error
// frame, complete every request already accepted onto a shard, flush every
// outbound queue, then close. drain() returns only when all of that is
// done, so a front end can exit 0 knowing no accepted request was dropped.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/serve/shard.hpp"

namespace gapsched::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Worker shards; 0 picks min(4, hardware concurrency).
  std::size_t shards = 0;
  /// Bounded depth of each shard's task queue (backpressure).
  std::size_t shard_queue = 128;
  /// Bounded depth of each connection's outbound frame queue.
  std::size_t outbound_queue = 256;
  /// Entry cap of the engine's content-addressed solve cache.
  std::size_t cache_capacity = 1u << 16;
  /// Hard per-frame byte bound; an over-long line closes the connection.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Path of the persistent on-disk solve store shared by every shard
  /// (and with CLI runs and future restarts); empty = memory-only.
  /// Opened at start(), which fails if the file is corrupt or foreign —
  /// a server asked to persist must not silently run without it.
  std::string store_path = {};
  /// Cost-weighted spill admission threshold (ms of solve wall time).
  double store_spill_min_ms = 0.1;
  /// Store file size budget (keep-most-expensive compaction); 0 = unbounded.
  std::size_t store_max_bytes = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Builds the Engine (opening the store), binds, listens, and spawns the
  /// acceptor and shard workers. False with *error set when the store
  /// cannot be opened or the port cannot be bound.
  bool start(std::string* error);

  /// The bound port (after start(); resolves port 0 requests).
  int port() const { return port_; }

  std::size_t shards() const;

  /// True once a drain began (no new requests are accepted).
  bool draining() const { return draining_.load(); }

  /// True once some client sent a "drain" frame. The owning front end is
  /// expected to react by calling drain() — the request is recorded, not
  /// executed, so drain() never runs on a connection thread.
  bool drain_requested() const { return drain_requested_.load(); }

  /// Blocks up to `timeout_s` for a drain request; true when one arrived.
  bool wait_drain_requested(double timeout_s);

  /// Graceful shutdown: stop accepting, complete all in-flight requests,
  /// flush and close every connection, join every thread. Idempotent;
  /// must not be called from a connection/shard thread.
  void drain();

  /// Current tallies: shared cache counters, aggregate pipeline roll-up,
  /// and the per-shard view — the body of the `stats` frame (empty before
  /// start()).
  io::ServerStatsWire stats() const;

  /// The engine's registry. After start().
  const engine::SolverRegistry& registry() const {
    return engine_->registry();
  }

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void dispatch_request(const std::shared_ptr<Connection>& conn,
                        const FrameHead& head, const std::string& line);
  /// Joins and erases finished connections (called from the acceptor).
  void reap_finished_locked();

  ServerOptions options_;
  int port_ = 0;

  std::unique_ptr<engine::Engine> engine_;  // built by start()

  /// One tally per shard; workers write their own entry, stats() snapshots
  /// under the mutex.
  struct ShardState {
    mutable std::mutex mu;
    io::ShardStatsWire tally;
  };
  std::vector<std::unique_ptr<ShardState>> shard_states_;
  std::unique_ptr<ShardPool> shard_pool_;

  TcpListener listener_;
  std::thread acceptor_;

  struct ConnEntry {
    std::shared_ptr<Connection> conn;
    std::thread reader;
    std::thread writer;
  };
  std::mutex conns_mu_;
  std::vector<ConnEntry> conns_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> drain_requested_{false};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace gapsched::serve
