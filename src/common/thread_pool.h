// Minimal persistent thread pool for intra-query parallelism (paper
// §5.2 uses 8 concurrent threads with a custom scheduler).
//
// Spawning std::thread per parallel region costs tens of microseconds
// per worker — more than a component's candidate build at bench scale
// — so the searcher keeps one pool for its lifetime.
#ifndef S3_COMMON_THREAD_POOL_H_
#define S3_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace s3 {

class ThreadPool {
 public:
  // Spawns `workers` threads (at least 1).
  explicit ThreadPool(unsigned workers) {
    if (workers < 1) workers = 1;
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
    obs::NotePoolCreated(static_cast<unsigned>(threads_.size()));
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    obs::NotePoolDestroyed(static_cast<unsigned>(threads_.size()));
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t WorkerCount() const { return threads_.size(); }

  // Caps how many pool workers join the next ParallelFor calls (the
  // calling thread always participates, so the effective concurrency
  // is limit + 1). The serving layer uses this to divide one machine's
  // thread budget among busy service workers without resizing pools:
  // an idle service hands a solo query every worker, a loaded one
  // clamps each query down. Must not be called while a ParallelFor on
  // this pool is in flight (one searcher runs one query at a time).
  void SetHelperLimit(size_t limit) {
    helper_limit_.store(limit, std::memory_order_relaxed);
  }
  size_t HelperLimit() const {
    return helper_limit_.load(std::memory_order_relaxed);
  }

  // Runs fn(i) for every i in [0, n), striped across the workers and
  // the calling thread; returns when all iterations finished.
  //
  // Exception safety: if any iteration throws, the first exception is
  // captured, the remaining iterations are drained without running
  // (every worker still reports done, so the pool stays usable), and
  // the exception is rethrown on the calling thread once the region
  // has quiesced. Iterations already running on other workers finish
  // normally; which later iterations were skipped is unspecified.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    obs::NotePoolRegion(n);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_ = &fn;
      task_size_ = n;
      next_.store(0, std::memory_order_relaxed);
      helpers_claimed_.store(0, std::memory_order_relaxed);
      abort_.store(false, std::memory_order_relaxed);
      first_error_ = nullptr;
      pending_workers_ = threads_.size();
      ++generation_;
    }
    cv_.notify_all();
    RunChunk(fn, n);  // the caller participates
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_workers_ == 0; });
    task_ = nullptr;
    if (first_error_ != nullptr) {
      std::exception_ptr e = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void RunChunk(const std::function<void(size_t)>& fn, size_t n) {
    for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      if (abort_.load(std::memory_order_relaxed)) continue;  // drain
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (first_error_ == nullptr) first_error_ = std::current_exception();
        abort_.store(true, std::memory_order_relaxed);
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    while (true) {
      const std::function<void(size_t)>* task = nullptr;
      size_t n = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
          return shutdown_ || generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
        task = task_;
        n = task_size_;
      }
      // Respect the helper cap: workers beyond it report done without
      // claiming iterations (the work is finished by the others and
      // the caller).
      if (task != nullptr &&
          helpers_claimed_.fetch_add(1, std::memory_order_relaxed) <
              helper_limit_.load(std::memory_order_relaxed)) {
        RunChunk(*task, n);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_workers_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* task_ = nullptr;
  size_t task_size_ = 0;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> helpers_claimed_{0};
  std::atomic<size_t> helper_limit_{SIZE_MAX};
  std::atomic<bool> abort_{false};
  std::exception_ptr first_error_ = nullptr;
  size_t pending_workers_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace s3

#endif  // S3_COMMON_THREAD_POOL_H_
