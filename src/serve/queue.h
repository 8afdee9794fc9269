// Bounded MPMC admission queue.
//
// The online server's front door: producers (request submitters) race
// try_push, consumers (stream-slot workers) race pop. Unlike
// runtime::Channel — the unbounded SPSC edge channel of the engine — this
// queue is *bounded*: try_push fails when the queue is at capacity, which
// is the server's overload-rejection policy. close() wakes every consumer;
// a closed queue drains its remaining items before pop reports exhaustion,
// so no admitted request is lost.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "util/error.h"

namespace hios::serve {

/// Bounded thread-safe multi-producer/multi-consumer FIFO.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    HIOS_CHECK(capacity > 0, "BoundedQueue capacity must be positive");
  }

  /// Non-blocking enqueue; false when the queue is full or closed (the
  /// admission-reject path). On failure `value` is left untouched, so the
  /// caller can still complete it with a rejection response.
  bool try_push(T&& value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || queue_.size() >= capacity_) return false;
      queue_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking dequeue; nullopt once the queue is closed *and* drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;  // closed and drained
    std::optional<T> out(std::move(queue_.front()));
    queue_.pop_front();
    return out;
  }

  /// Marks the queue closed and wakes all waiters. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace hios::serve
