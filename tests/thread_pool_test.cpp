// The per-call fan-out (util/thread_pool.h, DESIGN.md §6g): every index
// runs exactly once, chunk c covers [c*n/chunks, (c+1)*n/chunks) with chunk
// 0 on the caller, the lowest-index chunk's exception is the one rethrown,
// nested sections complete, and ScopedThreads restores the lane count.
// Linked into sched_parallel_test (label: stress), so CI runs it under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace hios::util {
namespace {

TEST(FanOut, EveryIndexOnceOnItsArithmeticChunk) {
  for (int lanes : {1, 2, 3, 8}) {
    const ThreadPool pool(lanes);
    ASSERT_EQ(pool.num_threads(), lanes);
    for (std::size_t n : {0u, 1u, 2u, 5u, 17u}) {
      std::vector<std::atomic<int>> runs(n);
      std::vector<std::thread::id> ran_on(n);
      pool.parallel_for(n, [&](std::size_t i) {
        runs[i].fetch_add(1);
        ran_on[i] = std::this_thread::get_id();
      });

      const std::size_t chunks = std::min<std::size_t>(static_cast<std::size_t>(lanes), n);
      auto chunk_of = [&](std::size_t i) {
        std::size_t c = 0;
        while (i >= (c + 1) * n / chunks) ++c;
        return c;
      };
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "lanes=" << lanes << " n=" << n << " i=" << i;
        // Chunk 0 runs on the caller. Every other chunk has its own thread,
        // alive until the join, so thread ids are distinct across chunks.
        EXPECT_EQ(ran_on[i] == std::this_thread::get_id(), chunk_of(i) == 0)
            << "lanes=" << lanes << " n=" << n << " i=" << i;
        for (std::size_t j = 0; j < i; ++j) {
          EXPECT_EQ(ran_on[i] == ran_on[j], chunk_of(i) == chunk_of(j))
              << "lanes=" << lanes << " n=" << n << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(FanOut, LowestIndexChunkExceptionIsRethrown) {
  // 8 indices on 4 lanes: chunks {0,1} {2,3} {4,5} {6,7}. Chunks 1, 2 and 3
  // throw; chunk 1's exception must win, as in the sequential loop.
  for (int lanes : {1, 4}) {
    const ThreadPool pool(lanes);
    std::vector<std::atomic<int>> runs(8);
    try {
      pool.parallel_for(8, [&](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == 3 || i == 5 || i == 6) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "lanes=" << lanes << ": no exception propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "lanes=" << lanes;
    }
    // Chunks run to their first throw; chunk 0 does not throw at all.
    EXPECT_EQ(runs[0].load(), 1);
    EXPECT_EQ(runs[1].load(), 1);
  }

  // Chunk 0 (the caller's) throwing beats every worker chunk.
  const ThreadPool pool(4);
  try {
    pool.parallel_for(8, [](std::size_t i) { throw std::runtime_error(std::to_string(i)); });
    ADD_FAILURE() << "no exception propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(FanOut, NestedSectionsComplete) {
  ScopedThreads lanes(3);
  constexpr std::size_t kOuter = 5, kInner = 7;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  global_pool().parallel_for(kOuter, [&](std::size_t i) {
    global_pool().parallel_for(kInner, [&](std::size_t j) { runs[i * kInner + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < runs.size(); ++k) EXPECT_EQ(runs[k].load(), 1) << "k=" << k;
}

TEST(FanOut, ScopedThreadsRestoresPreviousLaneCount) {
  const int before = global_pool().num_threads();
  {
    ScopedThreads outer(5);
    EXPECT_EQ(global_pool().num_threads(), 5);
    {
      ScopedThreads inner(2);
      EXPECT_EQ(global_pool().num_threads(), 2);
    }
    EXPECT_EQ(global_pool().num_threads(), 5);
  }
  EXPECT_EQ(global_pool().num_threads(), before);
}

// Explicit argument > HIOS_NUM_THREADS > hardware_concurrency, clamped to
// [1, kMaxThreads]. Constructing a pool starts no thread, so the clamp is
// checked without ever fanning out that wide.
TEST(FanOut, LaneResolutionOrderAndClamp) {
  const char* saved = std::getenv("HIOS_NUM_THREADS");
  const bool had_env = saved != nullptr;
  const std::string restore = had_env ? saved : "";
  ::setenv("HIOS_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool(0).num_threads(), 3);
  EXPECT_EQ(ThreadPool(2).num_threads(), 2);
  ::setenv("HIOS_NUM_THREADS", "100000", 1);
  EXPECT_EQ(ThreadPool(0).num_threads(), ThreadPool::kMaxThreads);
  ::unsetenv("HIOS_NUM_THREADS");
  EXPECT_GE(ThreadPool(0).num_threads(), 1);
  EXPECT_EQ(ThreadPool(ThreadPool::kMaxThreads + 1).num_threads(), ThreadPool::kMaxThreads);
  if (had_env) ::setenv("HIOS_NUM_THREADS", restore.c_str(), 1);
}

}  // namespace
}  // namespace hios::util
