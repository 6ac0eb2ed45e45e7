#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace ldv {

namespace {

// True on a region's helpers and on a caller currently inside a parallel
// region, so a ParallelFor issued from inside a chunk body runs inline
// instead of forking a second team under the first.
thread_local bool t_in_parallel_region = false;

std::atomic<unsigned> g_thread_budget{0};  // 0 = auto
std::atomic<unsigned> g_inner_threads{0};  // 0 = follow the budget

}  // namespace

unsigned HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void SetThreadBudget(unsigned threads) {
  g_thread_budget.store(threads, std::memory_order_relaxed);
}

unsigned ThreadBudget() {
  unsigned budget = g_thread_budget.load(std::memory_order_relaxed);
  return budget == 0 ? HardwareThreads() : budget;
}

unsigned InnerThreads() {
  unsigned inner = g_inner_threads.load(std::memory_order_relaxed);
  return inner == 0 ? ThreadBudget() : inner;
}

InnerThreadsScope::InnerThreadsScope(unsigned threads)
    : previous_(g_inner_threads.exchange(threads == 0 ? 1 : threads,
                                         std::memory_order_relaxed)) {}

InnerThreadsScope::~InnerThreadsScope() {
  g_inner_threads.store(previous_, std::memory_order_relaxed);
}

void ParallelForThreads(unsigned threads, std::size_t n, std::size_t grain, Workspace& ws,
                        const ParallelChunkFn& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunk_count = (n + grain - 1) / grain;
  if (threads <= 1 || chunk_count <= 1 || t_in_parallel_region) {
    // Inline execution, chunk by chunk: same geometry, same results, no
    // helper threads -- this IS the sequential path.
    for (std::size_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(n, begin + grain), ws);
    }
    return;
  }

  // Fork-join: the caller and its helpers claim chunk indices from one
  // atomic counter (dynamic load balancing without per-chunk queues).
  // Every helper runs on a one-thread workspace under the caller's memory
  // budget and ends with the region, so concurrent regions share nothing.
  const std::size_t helpers = std::min<std::size_t>(threads, chunk_count) - 1;
  const std::shared_ptr<MemoryBudget> budget = ws.budget();
  std::atomic<std::size_t> next_chunk{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // the first chunk exception of the region
  const auto run_chunks = [&](Workspace& chunk_ws) {
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunk_count) break;
      const std::size_t begin = chunk * grain;
      try {
        fn(begin, std::min(n, begin + grain), chunk_ws);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        // Skip the remaining chunks so every thread leaves the region
        // promptly.
        next_chunk.store(chunk_count, std::memory_order_relaxed);
      }
    }
    t_in_parallel_region = false;
  };
  std::vector<std::thread> team;
  team.reserve(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      team.emplace_back([&] {
        Workspace helper_ws(1, budget);
        run_chunks(helper_ws);
      });
    } catch (...) {
      // No thread to be had (EAGAIN, out of memory): the threads already
      // started finish the region, and none is left unjoined.
      break;
    }
  }
  run_chunks(ws);
  for (std::thread& helper : team) helper.join();
  // A chunk that threw (on any thread) rethrows HERE, on the calling
  // thread, after every helper has joined -- a deep I/O failure inside a
  // parallel kernel surfaces to the engine boundary instead of
  // terminating the process from a helper thread.
  if (error) std::rethrow_exception(error);
}

void ParallelFor(std::size_t n, std::size_t grain, Workspace& ws, const ParallelChunkFn& fn) {
  ParallelForThreads(ws.threads(), n, grain, ws, fn);
}

std::uint32_t ParallelExclusivePrefixSum(std::uint32_t* data, std::size_t n, std::size_t grain,
                                         Workspace& ws) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  auto sums_s = ws.U32();
  std::vector<std::uint32_t>& sums = *sums_s;
  sums.assign(chunks, 0);
  ParallelFor(n, grain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    std::uint32_t total = 0;
    for (std::size_t i = begin; i < end; ++i) total += data[i];
    sums[begin / grain] = total;
  });
  std::uint32_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint32_t t = sums[c];
    sums[c] = total;
    total += t;
  }
  ParallelFor(n, grain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    std::uint32_t running = sums[begin / grain];
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t v = data[i];
      data[i] = running;
      running += v;
    }
  });
  return total;
}

}  // namespace ldv
