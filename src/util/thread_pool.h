// Deterministic shared thread pool for coarse, independent work units.
//
// Its one production caller is PlanPool::prewarm, which builds the plans
// for distinct survivor masks concurrently. The schedulers' search loops
// run serially: their per-trial work is too fine-grained to beat the
// dispatch cost (DESIGN.md §6g). Callers must keep output byte-identical
// for any thread count, including 1; two rules make that composable:
//
//   * Static chunking. for_chunks() splits [0, n) into at most
//     num_threads() contiguous chunks, fixed by arithmetic on (n, threads)
//     alone — never by which worker happens to be free. Chunk index c is
//     stable, so per-chunk scratch binds to c, not to a thread id.
//   * Pure work items. Callers must make fn(i) a pure function of i and
//     of state committed before the call; shared state they touch must be
//     value-deterministic (e.g. the single-flight ScheduleCache: racing
//     lookups of one key build it once and all see the same plan).
//
// Blocking model: the calling thread executes chunk 0 itself, then helps
// drain the shared task queue before sleeping, so nested parallel sections
// (a pool task that itself calls for_chunks, e.g. a PlanPool::prewarm
// called from inside another pool task) cannot deadlock: a waiting thread
// only sleeps when the queue is empty, which means its remaining chunks
// are being executed by live workers.
//
// num_threads() resolution: explicit constructor argument > 0, else the
// HIOS_NUM_THREADS environment variable, else hardware_concurrency(); the
// result is clamped to [1, kMaxThreads]. num_threads() == 1 runs every
// section inline on the caller — zero dispatch overhead, bit-identical by
// construction.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hios::util {

class ThreadPool {
 public:
  static constexpr int kMaxThreads = 256;

  /// num_threads <= 0: resolve from HIOS_NUM_THREADS, then
  /// hardware_concurrency. The pool spawns num_threads() - 1 workers; the
  /// caller of each parallel section is the remaining lane.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(chunk, begin, end) over a static partition of [0, n) into
  /// min(num_threads(), n) contiguous chunks. Blocks until every chunk
  /// finished. The partition depends only on (n, num_threads()); chunk 0
  /// runs on the calling thread.
  void for_chunks(std::size_t n,
                  const std::function<void(int, std::size_t, std::size_t)>& body);

  /// fn(i) for every i in [0, n), statically chunked as above.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    for_chunks(n, [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }

 private:
  /// Number of chunks for_chunks(n, ...) will use.
  int num_chunks(std::size_t n) const {
    return static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(num_threads_), n));
  }

  void worker_loop();
  /// Pops and runs queued tasks until the queue is empty (help protocol).
  void drain_queue();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// The process-wide pool PlanPool::prewarm fans out on.
/// Lazily built on first use from HIOS_NUM_THREADS / hardware_concurrency.
ThreadPool& global_pool();

/// Replaces the global pool with one of `num_threads` lanes (<= 0 re-reads
/// the environment). Callers must ensure no parallel section is running;
/// intended for process startup (bench --threads) and tests.
void set_global_threads(int num_threads);

/// RAII thread-count override for tests: sets on construction, restores
/// the previous count on destruction.
class ScopedThreads {
 public:
  explicit ScopedThreads(int num_threads);
  ~ScopedThreads();
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int previous_;
};

}  // namespace hios::util
