#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace tlp {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::stop() {
  std::deque<std::function<void()>> abandoned;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    // Destroy queued tasks outside the lock: each unrun packaged_task
    // breaks its promise on destruction, and future-side callbacks must
    // not run under our mutex.
    abandoned.swap(queue_);
  }
  wake_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped, nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception into its future
  }
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Shared join state. Exceptions are kept per-index so the rethrown one is
  // the smallest failing index, independent of which worker ran what.
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::vector<std::exception_ptr> errors;
  };
  Join join;
  join.remaining = n;
  join.errors.assign(n, nullptr);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      throw std::runtime_error("ThreadPool: run_indexed after stop()");
    }
    for (std::size_t i = 0; i < n; ++i) {
      queue_.emplace_back([&join, &fn, i] {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> guard(join.mutex);
          join.errors[i] = std::current_exception();
        }
        // Notify while HOLDING the mutex: the barrier thread destroys
        // `join` the moment the predicate holds, so an unlocked
        // notify_one could touch a dead condition variable.
        const std::lock_guard<std::mutex> guard(join.mutex);
        --join.remaining;
        join.done.notify_one();
      });
    }
  }
  wake_.notify_all();

  std::unique_lock<std::mutex> lock(join.mutex);
  join.done.wait(lock, [&join] { return join.remaining == 0; });
  for (std::size_t i = 0; i < n; ++i) {
    if (join.errors[i] != nullptr) std::rethrow_exception(join.errors[i]);
  }
}

void ThreadPool::run_strided(
    std::size_t num_tasks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (num_tasks == 0) return;
  const std::size_t stride = std::min(size(), num_tasks);
  run_indexed(stride, [&fn, num_tasks, stride](std::size_t w) {
    for (std::size_t t = w; t < num_tasks; t += stride) fn(w, t);
  });
}

}  // namespace tlp
