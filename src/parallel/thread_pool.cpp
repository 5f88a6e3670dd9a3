#include "gapsched/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace gapsched {

namespace {

/// One parallel_for's shared state. Helpers hold it by shared_ptr, so a
/// helper that dequeues its run after the batch finished finds no index
/// left and touches nothing else.
struct Batch {
  Batch(std::size_t n_in, const std::function<void(std::size_t)>& fn_in)
      : n(n_in), fn(fn_in) {}

  /// Claims and runs indices until none are left.
  void drain() {
    std::size_t ran = 0;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lk(mu);
    done += ran;
    if (done == n) cv.notify_all();
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;  // live until done == n
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  helpers_ = threads - 1;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::size_t copies, const std::function<void()>& task) {
  copies = std::min(copies, helpers_);
  if (copies == 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (workers_.empty()) {
      workers_.reserve(helpers_);
      for (std::size_t i = 0; i < helpers_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    }
    for (std::size_t i = 0; i < copies; ++i) queue_.push(task);
  }
  if (copies == 1) {
    cv_task_.notify_one();
  } else {
    cv_task_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto batch = std::make_shared<Batch>(n, fn);
  pool.post(n - 1, [batch] { batch->drain(); });
  batch->drain();
  std::unique_lock<std::mutex> lk(batch->mu);
  batch->cv.wait(lk, [&] { return batch->done == n; });
}

}  // namespace gapsched
