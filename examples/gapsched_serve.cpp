// gapsched_serve — the long-lived solve server over one engine::Engine
// (serve/server.hpp): NDJSON frames over TCP, canonical-key-sharded
// workers, and one Engine (registry + SolveCache + optional store) shared
// by every connection.
//
//   $ ./gapsched_serve --port 7421 --shards 4
//   gapsched_serve listening on 127.0.0.1:7421 (4 shards, 13 solvers)
//
// Shutdown is always graceful: SIGTERM, SIGINT, or a client "drain" frame
// stops the acceptor, completes every request already accepted onto a
// shard, flushes every connection, and exits 0. An exit code of 0 is the
// contract that no accepted request was dropped.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "gapsched/serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

int usage() {
  std::cerr
      << "usage: gapsched_serve [options]\n"
      << "  --host <addr>        bind address (default 127.0.0.1)\n"
      << "  --port <p>           TCP port; 0 picks an ephemeral port and\n"
      << "                       prints it (default 0)\n"
      << "  --shards <n>         worker shards; 0 = min(4, cores)\n"
      << "  --shard-queue <n>    per-shard task queue depth (default 128)\n"
      << "  --outbound-queue <n> per-connection outbound frame queue depth\n"
      << "                       (default 256)\n"
      << "  --cache-capacity <n> shared solve-cache entry cap\n"
      << "                       (default 65536)\n"
      << "  --store <path>       persistent on-disk solve store shared by\n"
      << "                       all shards, CLI runs, and restarts\n"
      << "                       (created if missing; loads oracle-gated)\n"
      << "  --spill-min-ms <x>   only persist solves that took >= x ms\n"
      << "                       (default 0.1)\n"
      << "  --store-max-bytes <n> store size budget; compaction keeps the\n"
      << "                       most expensive entries (default unbounded)\n"
      << "protocol: newline-delimited JSON frames (request/result/stats/\n"
      << "drain/error); results stream in completion order, clients\n"
      << "reorder by id. SIGTERM or a drain frame triggers a graceful\n"
      << "drain; exit 0 means no accepted request was dropped.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gapsched::serve::ServerOptions options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    try {
      if (arg == "--host") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.host = *v;
      } else if (arg == "--port") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.port = std::stoi(*v);
      } else if (arg == "--shards") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.shards = std::stoul(*v);
      } else if (arg == "--shard-queue") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.shard_queue = std::stoul(*v);
      } else if (arg == "--outbound-queue") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.outbound_queue = std::stoul(*v);
      } else if (arg == "--cache-capacity") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.cache_capacity = std::stoul(*v);
      } else if (arg == "--store") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.store_path = *v;
      } else if (arg == "--spill-min-ms") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.store_spill_min_ms = std::stod(*v);
      } else if (arg == "--store-max-bytes") {
        const std::string* v = value();
        if (v == nullptr) return usage();
        options.store_max_bytes = std::stoul(*v);
      } else {
        std::cerr << "unknown option '" << arg << "'\n";
        return usage();
      }
    } catch (const std::exception&) {
      std::cerr << "bad numeric argument near '" << arg << "'\n";
      return 2;
    }
  }

  gapsched::serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "cannot start server on " << options.host << ":"
              << options.port << ": " << error << "\n";
    return 1;
  }
  // The READY line is the startup contract scripts wait on (the ephemeral
  // port is only known here).
  std::cout << "gapsched_serve listening on " << options.host << ":"
            << server.port() << " (" << server.shards() << " shards, "
            << server.registry().size() << " solvers"
            << (options.store_path.empty() ? std::string()
                                           : ", store " + options.store_path)
            << ")" << std::endl;

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // Park until SIGTERM/SIGINT or a client drain frame. The wait wakes
  // every 200 ms to poll the signal flag (signal handlers cannot notify a
  // condition variable safely).
  while (g_signal == 0) {
    if (server.wait_drain_requested(0.2)) break;
  }

  std::cout << "gapsched_serve draining ("
            << (g_signal != 0 ? "signal" : "drain frame") << ")"
            << std::endl;
  server.drain();

  const gapsched::io::ServerStatsWire stats = server.stats();
  std::uint64_t requests = 0;
  std::uint64_t refuted = 0;
  for (const auto& shard : stats.shards) {
    requests += shard.requests;
    refuted += shard.refuted;
  }
  std::cout << "gapsched_serve drained: " << requests << " request(s), "
            << stats.cache.hits << " cache hit(s), " << refuted
            << " refutation(s)";
  if (!options.store_path.empty()) {
    std::cout << ", " << stats.cache.spilled << " spilled, "
              << stats.cache.disk_hits << " disk hit(s)";
  }
  std::cout << std::endl;
  return 0;
}
