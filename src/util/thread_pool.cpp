#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <vector>

namespace hios::util {

namespace {

int resolve_num_threads(int requested) {
  int n = requested;
  if (n <= 0) {
    if (const char* env = std::getenv("HIOS_NUM_THREADS")) {
      n = std::atoi(env);
    }
  }
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;  // hardware_concurrency() may report 0
  return std::min(n, ThreadPool::kMaxThreads);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(resolve_num_threads(num_threads)) {}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) const {
  const std::size_t chunks = std::min(static_cast<std::size_t>(num_threads_), n);
  if (chunks <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(chunks);
  auto run_chunk = [&](std::size_t c) {
    try {
      for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) fn(i);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    try {
      threads.emplace_back(run_chunk, c);
    } catch (const std::system_error&) {
      run_chunk(c);  // no thread to be had: the caller runs the chunk itself
    }
  }
  run_chunk(0);
  for (std::thread& t : threads) t.join();

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

namespace {

std::mutex g_pool_mu;
std::optional<ThreadPool> g_pool;  // guarded by g_pool_mu
int g_requested_threads = 0;       // last set_global_threads argument

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool.emplace(g_requested_threads);
  return *g_pool;
}

void set_global_threads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested_threads = num_threads;
  g_pool.emplace(num_threads);
}

ScopedThreads::ScopedThreads(int num_threads) {
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    previous_ = g_requested_threads;
  }
  set_global_threads(num_threads);
}

ScopedThreads::~ScopedThreads() { set_global_threads(previous_); }

}  // namespace hios::util
