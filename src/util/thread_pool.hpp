// ThreadPool: a fixed-size worker pool for fork/join super-steps.
//
// Built for the parallel multi-partition growth in core/multi_tlp.cpp, but
// deliberately generic: FIFO task submission with futures, plus a blocking
// run_indexed() that fans one callable out over [0, n) and acts as a
// barrier, and run_strided() — the same barrier with a static task-to-worker
// assignment (task t on worker t % W). Exceptions propagate: a submitted
// task's exception surfaces through its future; the barriers rethrow the
// exception of the smallest failing worker index (deterministic regardless
// of scheduling).
//
// stop() cancels cooperatively: queued-but-unstarted tasks are abandoned
// (their futures report std::future_errc::broken_promise) and later
// submissions are rejected; already-running tasks finish. The destructor
// stops and joins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tlp {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 means std::thread::hardware_concurrency,
  /// with a floor of 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `f` (FIFO). The returned future yields f's result or rethrows
  /// its exception. Throws std::runtime_error after stop().
  template <class F>
  auto submit(F f) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    // shared_ptr because std::function must be copyable; the task is still
    // invoked at most once. Dropping the queue without running it breaks
    // the promise, which is exactly the cancellation contract.
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) {
        throw std::runtime_error("ThreadPool: submit after stop()");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return result;
  }

  /// Runs fn(0) .. fn(n-1) across the pool and blocks until all complete
  /// (a fork/join barrier). If any invocations throw, rethrows the
  /// exception of the SMALLEST failing index — deterministic no matter how
  /// the indices were scheduled. Reentrant calls from inside a task are not
  /// supported, and stop() must not be called while a run_indexed() is in
  /// flight (abandoned indices would never complete the barrier).
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Statically-strided fork/join barrier: runs fn(worker, task) for every
  /// task in [0, num_tasks), task t on worker t % min(size(), num_tasks),
  /// each worker walking its tasks in ascending order (the parallel
  /// mover's per-heap-shard phases). Exceptions follow run_indexed: the
  /// smallest failing worker index is rethrown.
  void run_strided(
      std::size_t num_tasks,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Cooperative cancellation: abandons queued tasks (futures break),
  /// rejects later submits, and wakes idle workers. Running tasks finish.
  void stop();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopped_ = false;
};

}  // namespace tlp
