// Bounded multi-producer / multi-consumer blocking queue — the
// admission-control primitive of the query service (server/).
//
// The capacity bound is what turns overload into back-pressure instead
// of unbounded memory growth: producers either block in Push or get an
// immediate refusal from TryPush (load shedding), and consumers drain
// in FIFO order. Close() wakes everyone; a closed queue refuses new
// items but lets consumers drain what was already accepted, so an
// orderly shutdown loses no admitted work.
//
// Plain mutex + two condition variables. The service's unit of work is
// an entire top-k query (milliseconds), so queue overhead is noise and
// a lock-free ring would buy nothing but TSan risk.
#ifndef S3_COMMON_BOUNDED_QUEUE_H_
#define S3_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace s3 {

template <typename T>
class BoundedQueue {
 public:
  // Capacity must be at least 1.
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking admission: false when the queue is full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocking admission: waits for space; false when the queue was (or
  // gets) closed before the item could be accepted.
  bool Push(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock, [this] {
        return closed_ || items_.size() < capacity_;
      });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and
  // drained (then nullopt).
  std::optional<T> Pop() {
    std::optional<T> out;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;  // closed and drained
      out.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  // Non-blocking consume: nullopt when empty.
  std::optional<T> TryPop() {
    std::optional<T> out;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) return std::nullopt;
      out.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  // Refuse new items; wake all blocked producers and consumers.
  // Already-admitted items remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace s3

#endif  // S3_COMMON_BOUNDED_QUEUE_H_
