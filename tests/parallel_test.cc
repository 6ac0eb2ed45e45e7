// Unit tests of the shared parallel runtime (src/common/parallel.h): the
// thread-budget helpers, the deterministic chunk geometry of ParallelFor,
// the ordered combine of ParallelReduce, per-thread workspace handling
// (the helpers' one-thread workspaces under the caller's budget), nested
// calls and cross-thread use. Everything here runs at explicit
// thread counts above the (possibly single-core) host's concurrency --
// oversubscription is part of the contract, it is what makes the parallel
// code paths testable anywhere.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace ldv {
namespace {

// Restores the process-wide budget around each test.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadBudget(0); }
};

TEST_F(ParallelTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

TEST_F(ParallelTest, ThreadBudgetResolvesZeroToHardware) {
  SetThreadBudget(0);
  EXPECT_EQ(ThreadBudget(), HardwareThreads());
  SetThreadBudget(3);
  EXPECT_EQ(ThreadBudget(), 3u);
  SetThreadBudget(64);  // oversubscription is honored, not clamped
  EXPECT_EQ(ThreadBudget(), 64u);
}

TEST_F(ParallelTest, InnerThreadsFollowsBudgetAndScope) {
  SetThreadBudget(5);
  EXPECT_EQ(InnerThreads(), 5u);
  {
    InnerThreadsScope scope(1);
    EXPECT_EQ(InnerThreads(), 1u);
    {
      InnerThreadsScope nested(2);
      EXPECT_EQ(InnerThreads(), 2u);
    }
    EXPECT_EQ(InnerThreads(), 1u);
  }
  EXPECT_EQ(InnerThreads(), 5u);
}

TEST_F(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    SetThreadBudget(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{97}, std::size_t{4096}}) {
      Workspace ws;
      std::vector<std::atomic<std::uint32_t>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelFor(n, 17, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "n=" << n << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST_F(ParallelTest, ChunkGeometryDependsOnlyOnSizeAndGrain) {
  // ceil(n/grain) chunks, chunk k = [k*grain, min(n, (k+1)*grain)), at
  // every thread count -- the documented contract determinism rests on.
  const std::size_t n = 1000, grain = 64;
  for (unsigned threads : {1u, 3u, 8u}) {
    SetThreadBudget(threads);
    Workspace ws;
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    ParallelFor(n, grain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.insert({begin, end});
    });
    ASSERT_EQ(chunks.size(), (n + grain - 1) / grain);
    for (const auto& [begin, end] : chunks) {
      EXPECT_EQ(begin % grain, 0u);
      EXPECT_EQ(end, std::min(n, begin + grain));
    }
  }
}

TEST_F(ParallelTest, ParallelReduceSumsExactly) {
  for (unsigned threads : {1u, 2u, 4u}) {
    SetThreadBudget(threads);
    Workspace ws;
    const std::size_t n = 12345;
    std::uint64_t total = ParallelReduce(
        n, 100, ws, std::uint64_t{0},
        [](std::size_t begin, std::size_t end, Workspace&) {
          std::uint64_t partial = 0;
          for (std::size_t i = begin; i < end; ++i) partial += i;
          return partial;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(total, static_cast<std::uint64_t>(n) * (n - 1) / 2) << "threads=" << threads;
  }
}

TEST_F(ParallelTest, FloatReductionIsBitIdenticalAcrossThreadCounts) {
  // The ordered combine makes even floating-point results a pure function
  // of (n, grain): run the same reduction at several thread counts and
  // require bit equality.
  const std::size_t n = 100000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = 1.0 / static_cast<double>(i + 3);
  auto run = [&] {
    Workspace ws;
    return ParallelReduce(
        n, 4096, ws, 0.0,
        [&](std::size_t begin, std::size_t end, Workspace&) {
          double partial = 0.0;
          for (std::size_t i = begin; i < end; ++i) partial += values[i];
          return partial;
        },
        [](double a, double b) { return a + b; });
  };
  SetThreadBudget(1);
  const double reference = run();
  for (unsigned threads : {2u, 4u, 8u}) {
    SetThreadBudget(threads);
    EXPECT_EQ(run(), reference) << "threads=" << threads;
  }
}

TEST_F(ParallelTest, WorkerWorkspacesAreDistinctPerThread) {
  // Two chunks running on different threads must never share a Workspace;
  // chunks on the same thread must reuse one (that is what makes the
  // buffer pools effective).
  SetThreadBudget(4);
  Workspace caller_ws;
  std::mutex mu;
  std::vector<std::pair<std::thread::id, Workspace*>> seen;
  ParallelFor(64, 1, caller_ws, [&](std::size_t, std::size_t, Workspace& ws) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back({std::this_thread::get_id(), &ws});
  });
  ASSERT_EQ(seen.size(), 64u);
  for (std::size_t a = 0; a < seen.size(); ++a) {
    for (std::size_t b = a + 1; b < seen.size(); ++b) {
      if (seen[a].first == seen[b].first) {
        EXPECT_EQ(seen[a].second, seen[b].second) << "one thread, two workspaces";
      } else {
        EXPECT_NE(seen[a].second, seen[b].second) << "two threads share a workspace";
      }
    }
  }
}

TEST_F(ParallelTest, HelpersRunOnOneThreadWorkspacesUnderTheCallersBudget) {
  // The caller's chunks run on the caller's workspace. Every helper's
  // chunks run on a one-thread workspace of its own that carries the
  // caller's memory budget -- the same object -- whatever the process
  // defaults say.
  SetThreadBudget(7);
  const auto budget = std::make_shared<MemoryBudget>(1 << 20);
  Workspace caller_ws(4, budget);
  const std::thread::id caller = std::this_thread::get_id();
  struct Seen {
    bool on_caller;
    Workspace* ws;
    unsigned threads;
    std::shared_ptr<MemoryBudget> budget;
  };
  std::mutex mu;
  std::vector<Seen> seen;
  std::atomic<bool> helper_ran{false};
  ParallelFor(64, 1, caller_ws, [&](std::size_t, std::size_t, Workspace& ws) {
    const bool on_caller = std::this_thread::get_id() == caller;
    if (!on_caller) helper_ran.store(true);
    // Hold the caller until a helper has claimed a chunk, so helpers take
    // part however the scheduler runs them.
    for (int i = 0; on_caller && !helper_ran.load() && i < 5000; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back({on_caller, &ws, ws.threads(), ws.budget()});
  });
  ASSERT_EQ(seen.size(), 64u);
  EXPECT_TRUE(helper_ran.load()) << "no helper ran a chunk";
  for (const Seen& chunk : seen) {
    if (chunk.on_caller) {
      EXPECT_EQ(chunk.ws, &caller_ws);
    } else {
      EXPECT_NE(chunk.ws, &caller_ws);
      EXPECT_EQ(chunk.threads, 1u);
      EXPECT_EQ(chunk.budget.get(), budget.get());
    }
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  SetThreadBudget(4);
  Workspace ws;
  std::atomic<std::uint64_t> total{0};
  ParallelFor(8, 1, ws, [&](std::size_t, std::size_t, Workspace& outer_ws) {
    // A nested call must execute inline rather than fork a second team,
    // and must see the same per-thread workspace.
    ParallelFor(10, 2, outer_ws, [&](std::size_t begin, std::size_t end, Workspace& inner_ws) {
      EXPECT_EQ(&inner_ws, &outer_ws);
      total.fetch_add(end - begin);
    });
  });
  EXPECT_EQ(total.load(), 80u);
}

TEST_F(ParallelTest, ConcurrentCallersSerializeSafely) {
  // Two plain threads issuing ParallelFor concurrently: each region forks
  // and joins its own helpers, so the regions run at the same time, both
  // complete, results are exact. (This is also the TSan-job scenario.)
  SetThreadBudget(4);
  auto sum_to = [](std::size_t n) {
    Workspace ws;
    return ParallelReduce(
        n, 64, ws, std::uint64_t{0},
        [](std::size_t begin, std::size_t end, Workspace&) {
          std::uint64_t partial = 0;
          for (std::size_t i = begin; i < end; ++i) partial += i;
          return partial;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  };
  std::uint64_t r1 = 0, r2 = 0;
  std::thread t1([&] { r1 = sum_to(5000); });
  std::thread t2([&] { r2 = sum_to(7000); });
  t1.join();
  t2.join();
  EXPECT_EQ(r1, 5000ull * 4999 / 2);
  EXPECT_EQ(r2, 7000ull * 6999 / 2);
}

TEST_F(ParallelTest, ReduceOnEmptyRangeReturnsIdentity) {
  SetThreadBudget(4);
  Workspace ws;
  double total = ParallelReduce(
      0, 16, ws, 42.0, [](std::size_t, std::size_t, Workspace&) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(total, 42.0);
}

}  // namespace
}  // namespace ldv
