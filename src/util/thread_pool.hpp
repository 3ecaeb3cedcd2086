// A small fixed-size thread pool.
//
// Runs the Monte-Carlo replicate fan-out (sim/monte_carlo) and the frontier
// kernel's in-round lanes (core/frontier_kernel).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace cobra::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future resolves when the task completes.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      MutexLock lock(mutex_);
      tasks_.emplace([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs f(i) for i in [0, count) across the pool; blocks until done.
  void parallel_for_index(std::size_t count,
                          const std::function<void(std::size_t)>& f);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ COBRA_GUARDED_BY(mutex_);
  std::condition_variable cv_;
  bool stopping_ COBRA_GUARDED_BY(mutex_) = false;
};

}  // namespace cobra::util
