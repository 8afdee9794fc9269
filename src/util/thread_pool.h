// Deterministic per-call fan-out for coarse, independent work units.
//
// Its production callers are PlanPool::prewarm, which builds the plans
// for distinct survivor masks concurrently, and Server::run_trace, which
// runs the engine for its committed dispatches. The schedulers' search loops
// run serially: their per-trial work is too fine-grained to beat the
// dispatch cost (DESIGN.md §6g). Callers must keep output byte-identical
// for any lane count, including 1; two rules make that composable:
//
//   * Static chunking. parallel_for() splits [0, n) into
//     min(num_threads(), n) contiguous chunks, chunk c covering
//     [c * n / chunks, (c + 1) * n / chunks) — fixed by arithmetic on
//     (n, lanes) alone. Chunk 0 runs on the caller.
//   * Pure work items. Callers must make fn(i) a pure function of i and
//     of state committed before the call; shared state they touch must be
//     value-deterministic (e.g. the single-flight ScheduleCache: racing
//     lookups of one key build it once and all see the same plan).
//
// Threading model: each parallel_for spawns one short-lived std::thread per
// chunk beyond the first and joins them all before returning. A nested parallel_for (called
// from inside a chunk) spawns its own threads the same way, so it cannot
// deadlock: nothing ever waits for a shared worker to become free.
// Exceptions are captured per chunk and the lowest-index one is rethrown,
// matching what the sequential left-to-right loop would have thrown first.
//
// num_threads() resolution: explicit constructor argument > 0, else the
// HIOS_NUM_THREADS environment variable, else hardware_concurrency(); the
// result is clamped to [1, kMaxThreads]. num_threads() == 1 runs every
// index inline on the caller — no thread, bit-identical by construction.
#pragma once

#include <cstddef>
#include <functional>

namespace hios::util {

class ThreadPool {
 public:
  static constexpr int kMaxThreads = 256;

  /// num_threads <= 0: resolve from HIOS_NUM_THREADS, then
  /// hardware_concurrency.
  explicit ThreadPool(int num_threads = 0);

  int num_threads() const { return num_threads_; }

  /// fn(i) for every i in [0, n), statically chunked as above. Blocks until
  /// every chunk finished, then rethrows the lowest-index chunk's exception.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const;

 private:
  int num_threads_ = 1;
};

/// The process-wide lane count PlanPool::prewarm fans out on.
/// Lazily resolved on first use from HIOS_NUM_THREADS / hardware_concurrency.
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
