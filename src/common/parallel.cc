#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

namespace ldv {

namespace {

// True on threads owned by the pool and on a caller currently inside a
// parallel region, so a ParallelFor issued from inside a chunk body runs
// inline instead of deadlocking on the run mutex.
thread_local bool t_in_parallel_region = false;

std::atomic<unsigned> g_thread_budget{0};  // 0 = auto
std::atomic<unsigned> g_inner_threads{0};  // 0 = follow the budget

// The work-stealing-lite pool: persistent workers claim chunk indices
// from one shared atomic counter (dynamic load balancing without
// per-chunk queues). One parallel region runs at a time (run_mutex_), so
// concurrent engine runs with more than one thread take turns here; the
// calling thread participates, so `threads == 1` never touches the pool
// at all.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool;
    return pool;
  }

  void Run(unsigned threads, std::size_t n, std::size_t grain, Workspace& caller_ws,
           const ParallelChunkFn& fn) {
    const std::size_t chunk_count = (n + grain - 1) / grain;
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    const unsigned helpers =
        static_cast<unsigned>(std::min<std::size_t>(threads - 1, chunk_count - 1));
    EnsureWorkers(helpers);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_fn_ = &fn;
      task_n_ = n;
      task_grain_ = grain;
      task_chunks_ = chunk_count;
      next_chunk_.store(0, std::memory_order_relaxed);
      pending_ = helpers;
      ++epoch_;
      helpers_wanted_ = helpers;
    }
    work_cv_.notify_all();
    t_in_parallel_region = true;
    RunChunks(caller_ws);
    t_in_parallel_region = false;
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return pending_ == 0; });
      task_fn_ = nullptr;
      error = task_error_;
      task_error_ = nullptr;
    }
    // A chunk that threw (on any thread) rethrows HERE, on the calling
    // thread, after every worker has left the region -- a deep I/O
    // failure inside a parallel kernel surfaces to the engine boundary
    // instead of terminating the process from a pool thread.
    if (error) std::rethrow_exception(error);
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) worker->thread.join();
  }

 private:
  struct Worker {
    explicit Worker(ThreadPool* pool, unsigned index) {
      thread = std::thread([pool, index] { pool->WorkerLoop(index); });
    }
    std::thread thread;
    Workspace workspace;
  };

  void EnsureWorkers(unsigned count) {
    while (workers_.size() < count) {
      workers_.push_back(
          std::make_unique<Worker>(this, static_cast<unsigned>(workers_.size())));
    }
  }

  void RunChunks(Workspace& ws) {
    for (;;) {
      std::size_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= task_chunks_) return;
      std::size_t begin = chunk * task_grain_;
      std::size_t end = std::min(task_n_, begin + task_grain_);
      try {
        (*task_fn_)(begin, end, ws);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (!task_error_) task_error_ = std::current_exception();
        }
        // Skip the remaining chunks so every thread leaves the region
        // promptly; Run() rethrows on the calling thread.
        next_chunk_.store(task_chunks_, std::memory_order_relaxed);
      }
    }
  }

  void WorkerLoop(unsigned index) {
    t_in_parallel_region = true;
    std::uint64_t seen_epoch = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] {
          return shutdown_ || (epoch_ != seen_epoch && index < helpers_wanted_);
        });
        if (shutdown_) return;
        seen_epoch = epoch_;
      }
      RunChunks(workers_[index]->workspace);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex run_mutex_;  // serializes whole parallel regions
  std::mutex mutex_;      // protects the task state below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  const ParallelChunkFn* task_fn_ = nullptr;
  std::exception_ptr task_error_;  // first chunk exception of the region
  std::size_t task_n_ = 0;
  std::size_t task_grain_ = 1;
  std::size_t task_chunks_ = 0;
  std::atomic<std::size_t> next_chunk_{0};
  unsigned pending_ = 0;
  unsigned helpers_wanted_ = 0;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;
};

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
    // pool -- this IS the sequential path.
    for (std::size_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(n, begin + grain), ws);
    }
    return;
  }
  ThreadPool::Global().Run(threads, n, grain, ws, fn);
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
