#pragma once
// The one executor: a small pool whose only operation is parallel_for.
// The solver code itself is single-threaded and deterministic; parallelism
// lives at the harness level (bench sweeps, Engine::solve_batch, component
// fan-out), which keeps results bitwise reproducible at any thread count.
//
// A parallel_for joins only its own indices: the calling thread claims
// indices too, and helper workers claim from the same shared counter, so
// the caller can always finish the batch alone. A parallel_for nested
// inside another one's body on the same pool therefore cannot deadlock,
// and concurrent batches never wait out each other's work.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gapsched {

class ThreadPool {
 public:
  /// `threads` bounds one parallel_for's concurrency: the calling thread
  /// plus up to threads - 1 helper workers (0 = hardware concurrency).
  /// Helpers spawn lazily, on the first parallel_for that can use them, so
  /// a pool that never fans out starts no thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  friend void parallel_for(ThreadPool& pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  /// Queues up to `copies` helper runs of `task` (capped at the helper
  /// count), spawning the helpers on first use.
  void post(std::size_t copies, const std::function<void()>& task);
  void worker_loop();

  std::size_t helpers_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Runs fn(i) for i in [0, n) across the calling thread and the pool's
/// helpers, returning once every index has run. fn must be safe to invoke
/// concurrently for distinct i and must not throw; it may itself call
/// parallel_for on the same pool.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace gapsched
