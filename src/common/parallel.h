#ifndef LDIV_COMMON_PARALLEL_H_
#define LDIV_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/workspace.h"

namespace ldv {

/// std::thread::hardware_concurrency(), with the zero-means-unknown case
/// resolved to 1 so every layer shares the same fallback.
unsigned HardwareThreads();

/// Process-default thread budget: the total number of threads a run may
/// use across the batch layer and the in-kernel parallelism. It is only
/// the default for callers that pass no context -- each engine run
/// carries its own thread count in its Workspace, and a
/// default-constructed Workspace falls back to InnerThreads(). 0 means
/// auto (HardwareThreads()). An explicit budget above the hardware count
/// is honored -- oversubscription is the caller's call, and it is what
/// lets the parallel code paths be exercised on small machines.
void SetThreadBudget(unsigned threads);

/// The resolved default budget (>= 1).
unsigned ThreadBudget();

/// The default kernel-level parallelism: ThreadBudget(), or the cap of
/// an active InnerThreadsScope.
unsigned InnerThreads();

/// RAII cap on InnerThreads() for the current scope (process-wide, not
/// per-thread), for callers that run kernels on default Workspaces from
/// several threads at once.
class InnerThreadsScope {
 public:
  explicit InnerThreadsScope(unsigned threads);
  ~InnerThreadsScope();
  InnerThreadsScope(const InnerThreadsScope&) = delete;
  InnerThreadsScope& operator=(const InnerThreadsScope&) = delete;

 private:
  unsigned previous_;
};

/// One chunk of a parallel loop: the half-open index range [begin, end)
/// plus the Workspace the executing thread owns for its scratch memory.
/// For the calling thread this is the workspace passed to ParallelFor;
/// for pool workers it is the worker's resident workspace.
using ParallelChunkFn =
    std::function<void(std::size_t begin, std::size_t end, Workspace& ws)>;

/// Deterministic parallel loop over [0, n): the range is cut into
/// ceil(n / grain) chunks, chunk k covering [k*grain, min(n, (k+1)*grain)),
/// and the chunks are executed by up to ws.threads() threads (the caller
/// participates; a lazily started pool supplies the rest, so a one-thread
/// workspace never touches the pool). The chunk
/// geometry depends only on (n, grain) -- never on the thread count -- so
/// any output indexed by row or by chunk is byte-identical at every
/// thread count; only the assignment of chunks to threads varies.
///
/// `fn` must therefore write only to locations owned by its chunk (or to
/// per-chunk slots) and may read any shared state that no chunk writes.
/// Chunks claimed by the pool run concurrently; a chunk is never split.
/// Calls from inside a pool worker run inline (no nested fan-out).
///
/// A chunk that throws -- on any thread -- skips the region's remaining
/// chunks and rethrows the first exception on the calling thread once
/// every worker has left the region, so I/O failures inside parallel
/// kernels reach the engine boundary instead of std::terminate.
void ParallelFor(std::size_t n, std::size_t grain, Workspace& ws, const ParallelChunkFn& fn);

/// ParallelFor with an explicit thread count instead of ws.threads().
void ParallelForThreads(unsigned threads, std::size_t n, std::size_t grain, Workspace& ws,
                        const ParallelChunkFn& fn);

/// In-place exclusive prefix sum over data[0, n): data[i] becomes the sum
/// of the original data[0, i), and the grand total is returned. Runs as
/// two ParallelFor passes (per-chunk sums, then per-chunk rewrites seeded
/// by the sequentially scanned chunk totals), so the result is
/// byte-identical at every thread count. The total must fit in 32 bits --
/// callers sum row or group counts, which are bounded by the row count.
std::uint32_t ParallelExclusivePrefixSum(std::uint32_t* data, std::size_t n, std::size_t grain,
                                         Workspace& ws);

/// Ordered parallel reduction over [0, n): `map` produces one partial
/// result per chunk (same geometry as ParallelFor), and the partials are
/// folded sequentially in ascending chunk order. Because both the chunk
/// geometry and the combine order are pure functions of (n, grain), the
/// result -- including floating-point rounding -- is identical at every
/// thread count.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(std::size_t n, std::size_t grain, Workspace& ws, T identity, const MapFn& map,
                 const CombineFn& combine) {
  if (n == 0) return identity;
  if (grain == 0) grain = 1;  // same normalization as ParallelFor
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<T> partial(chunks, identity);
  ParallelFor(n, grain, ws, [&](std::size_t begin, std::size_t end, Workspace& chunk_ws) {
    partial[begin / grain] = map(begin, end, chunk_ws);
  });
  T total = identity;
  for (const T& p : partial) total = combine(total, p);
  return total;
}

}  // namespace ldv

#endif  // LDIV_COMMON_PARALLEL_H_
