// ArtifactCache tests: the LRU byte-budget mechanics (hit/miss, eviction
// order, recency refresh, shared-ownership pinning, a caller's insertion
// allowance), single-flight fills (concurrent misses share one build, a
// failed build is retried), content-identity invalidation when a CSV
// input changes on disk, refault correctness under a forced-eviction
// artifact budget, and concurrent daemon submissions sharing one cached
// artifact (run under TSan in CI).

#include "engine/artifact_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/schema_spec.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "engine/engine.h"
#include "engine/job_spec.h"
#include "engine/report.h"
#include "test_util.h"

namespace ldv {
namespace {

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

std::shared_ptr<const std::vector<RowId>> MakeOrder(std::size_t n) {
  auto order = std::make_shared<std::vector<RowId>>();
  for (std::size_t i = 0; i < n; ++i) order->push_back(static_cast<RowId>(i));
  return order;
}

TEST(ArtifactCache, LruHitMissEvictAndRefresh) {
  ArtifactCache cache(/*capacity_bytes=*/1000);
  auto a = MakeOrder(3);
  auto b = MakeOrder(1);
  auto c = MakeOrder(2);

  EXPECT_EQ(cache.LookupOrder("a"), nullptr);
  cache.InsertOrder("a", a, 400);
  cache.InsertOrder("b", b, 400);
  EXPECT_EQ(cache.LookupOrder("a"), a) << "a hit returns the shared artifact, not a copy";
  cache.InsertOrder("c", c, 400);  // over budget: evicts "b", the least recently used
  EXPECT_EQ(cache.LookupOrder("b"), nullptr);
  EXPECT_EQ(cache.LookupOrder("a"), a);
  EXPECT_EQ(cache.LookupOrder("c"), c);

  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes, 800u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ArtifactCache, ZeroCapacityAndOversizedEntriesAreNotCached) {
  ArtifactCache disabled(0);
  disabled.InsertOrder("a", MakeOrder(1), 10);
  EXPECT_EQ(disabled.LookupOrder("a"), nullptr);
  EXPECT_EQ(disabled.stats().insertions, 0u);

  ArtifactCache small(100);
  small.InsertOrder("big", MakeOrder(1), 101);
  EXPECT_EQ(small.LookupOrder("big"), nullptr);
  EXPECT_EQ(small.stats().resident_bytes, 0u);
}

TEST(ArtifactCache, EvictedArtifactsStayAliveWhilePinned) {
  ArtifactCache cache(800);
  cache.InsertOrder("a", MakeOrder(4), 400);

  // A consumer holding the artifact keeps it alive across eviction: the
  // cache only drops its own reference.
  std::shared_ptr<const std::vector<RowId>> pinned = cache.LookupOrder("a");
  ASSERT_NE(pinned, nullptr);

  cache.InsertOrder("b", MakeOrder(5), 400);
  cache.InsertOrder("c", MakeOrder(6), 400);  // over capacity: evicts "a", the least recently used
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.LookupOrder("a"), nullptr);
  EXPECT_EQ(pinned->size(), 4u) << "the pinned artifact outlives its cache entry";
}

TEST(ArtifactCache, InsertRoomCapsWhatOneCallerAdds) {
  ArtifactCache cache(1u << 20);
  bool hit = true;
  std::uint64_t room = 100;
  // 40 RowIds = 160 bytes: built and returned, but past the caller's room.
  auto big = cache.GetOrBuildOrder("big", [] { return MakeOrder(40); }, &room, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(big->size(), 40u);
  EXPECT_EQ(room, 100u);
  EXPECT_EQ(cache.stats().insertions, 0u);

  auto small = cache.GetOrBuildOrder("small", [] { return MakeOrder(20); }, &room, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(room, 20u) << "an insertion draws the room down by its bytes";
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.GetOrBuildOrder("small", [] { return MakeOrder(1); }, &room, &hit), small);
  EXPECT_TRUE(hit);
}

TEST(ArtifactCache, ConcurrentMissesOnOneKeyShareOneBuild) {
  ArtifactCache cache(1u << 20);
  constexpr std::size_t kCallers = 6;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const std::vector<RowId>>> got(kCallers);
  std::vector<char> hits(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      std::uint64_t room = ~std::uint64_t{0};
      bool hit = false;
      got[i] = cache.GetOrBuildOrder(
          "shared",
          [&] {
            ++builds;
            // Slow enough that every caller arrives while it is in flight.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return MakeOrder(8);
          },
          &room, &hit);
      hits[i] = hit ? 1 : 0;
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (std::size_t i = 1; i < kCallers; ++i) EXPECT_EQ(got[i], got[0]);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 0), 1) << "exactly one caller built it";
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kCallers - 1);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ArtifactCache, AFailedBuildIsRetriedByItsWaiters) {
  ArtifactCache cache(1u << 20);
  std::atomic<bool> started{false};
  std::thread failing([&] {
    std::uint64_t room = ~std::uint64_t{0};
    bool hit = false;
    EXPECT_THROW(cache.GetOrBuildOrder(
                     "flaky",
                     [&]() -> std::shared_ptr<const std::vector<RowId>> {
                       started = true;
                       std::this_thread::sleep_for(std::chrono::milliseconds(100));
                       throw std::runtime_error("build failed");
                     },
                     &room, &hit),
                 std::runtime_error);
  });
  while (!started) std::this_thread::yield();
  std::uint64_t room = ~std::uint64_t{0};
  bool hit = true;
  auto order = cache.GetOrBuildOrder("flaky", [] { return MakeOrder(3); }, &room, &hit);
  failing.join();
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(order->size(), 3u);
  EXPECT_FALSE(hit) << "the waiter built the artifact itself after the failure";
}

TEST(ArtifactCache, KeysSeparateArtifactKindsAndSchemas) {
  Table table = testutil::PaperTable1();
  const std::string grouped_key = ArtifactCache::GroupedKey("ds", table);
  const std::string order_key = ArtifactCache::OrderKey("ds", table);
  EXPECT_NE(grouped_key, order_key) << "one dataset, two artifact kinds, two keys";
  EXPECT_NE(grouped_key.find("ds"), std::string::npos);
  EXPECT_NE(ArtifactCache::GroupedKey("other", table), grouped_key)
      << "the dataset content key is part of the artifact key";
}

TEST(ArtifactCacheEngine, CsvContentChangeInvalidatesArtifacts) {
  Rng rng(7);
  Table table = testutil::RandomEligibleTable(rng, 60, {6, 4}, 5, 2);
  const std::string path = testing::TempDir() + "artifact_input.csv";
  ASSERT_TRUE(WriteTableCsv(table, path));

  Engine engine;
  JobSpec spec;
  spec.input = path;
  spec.schema_spec = FormatSchemaSpec(table.schema());
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;

  Expected<JobResult, PipelineError> first = engine.Run(spec);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first->artifact_misses, 1u);
  EXPECT_EQ(first->artifact_hits, 0u);

  Expected<JobResult, PipelineError> second = engine.Run(spec);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->artifact_hits, 1u);
  EXPECT_EQ(second->artifact_misses, 0u);

  // Rewriting the file (different row count, hence size and mtime)
  // changes the dataset content key, so the stale grouping is never
  // served for the new data.
  Rng changed_rng(8);
  Table changed = testutil::RandomEligibleTable(changed_rng, 80, {6, 4}, 5, 2);
  ASSERT_TRUE(WriteTableCsv(changed, path));
  Expected<JobResult, PipelineError> third = engine.Run(spec);
  ASSERT_TRUE(third.ok()) << third.error().message;
  EXPECT_EQ(third->artifact_hits, 0u) << "a changed CSV must not reuse stale artifacts";
  EXPECT_EQ(third->artifact_misses, 1u);

  std::remove(path.c_str());
}

TEST(ArtifactCacheEngine, ForcedEvictionRefaultsByteForByte) {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {900};
  spec.ds = {3};
  spec.algorithms = {Algorithm::kTp, Algorithm::kHilbert};
  spec.ls = {2, 3};
  spec.timings = false;

  Engine roomy;
  Expected<JobResult, PipelineError> reference = roomy.Run(spec);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  EXPECT_EQ(reference->artifact_misses, 2u);
  const std::uint64_t resident = roomy.artifact_cache().stats().resident_bytes;
  ASSERT_GT(resident, 0u);

  // A cache one byte short of both artifacts evicts the first as the
  // second lands; the next run refaults what it lost and must still match.
  EngineOptions tight_options;
  tight_options.artifact_cache_bytes = resident - 1;
  Engine tight(tight_options);
  ASSERT_TRUE(tight.Run(spec).ok());
  EXPECT_GT(tight.artifact_cache().stats().evictions, 0u);
  Expected<JobResult, PipelineError> refaulted = tight.Run(spec);
  ASSERT_TRUE(refaulted.ok()) << refaulted.error().message;
  EXPECT_GT(refaulted->artifact_misses, 0u) << "the evicted artifact must refault";

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(reference.value(), options),
            RenderJsonReport(refaulted.value(), options));
  EXPECT_EQ(RenderMetricsCsv(reference.value(), options),
            RenderMetricsCsv(refaulted.value(), options));
}

TEST(ArtifactCacheDaemon, ConcurrentSubmissionsShareOneArtifact) {
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "ldivd_artifact.sock";
  options.workers = 2;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  auto spec_for = [](const std::string& out) {
    JobSpec spec;
    spec.dataset.name = "sal";
    spec.ns = {600};
    spec.ds = {3};
    spec.algorithms = {Algorithm::kTp};
    spec.ls = {2};
    spec.timings = false;
    spec.out = out;
    return spec;
  };

  constexpr std::size_t kClients = 6;
  std::vector<Frame> replies(kClients);
  std::vector<std::map<std::string, std::string>> kvs(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const JobSpec spec =
          spec_for(testing::TempDir() + "ldivd_artifact_" + std::to_string(i));
      DaemonRequest(options.socket_path, Frame{"job", SerializeJobSpec(spec)}, &replies[i],
                    &kvs[i], &errors[i]);
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_EQ(replies[i].verb, "ok") << errors[i] << " " << replies[i].payload;
  }

  // One GroupedTable build serves every submission; the stats verb
  // surfaces the shared counters.
  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"stats", ""}, &reply, &kv, &error))
      << error;
  EXPECT_EQ(kv.at("artifact-misses"), "1") << "the grouping must be built exactly once";
  EXPECT_EQ(kv.at("artifact-hits"), std::to_string(kClients - 1));

  // Hit-path outputs are byte-identical to the cold-path ones.
  const std::string reference = ReadFile(testing::TempDir() + "ldivd_artifact_0.csv");
  ASSERT_FALSE(reference.empty());
  for (std::size_t i = 1; i < kClients; ++i) {
    EXPECT_EQ(ReadFile(testing::TempDir() + "ldivd_artifact_" + std::to_string(i) + ".csv"),
              reference);
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    const std::string stem = testing::TempDir() + "ldivd_artifact_" + std::to_string(i);
    for (const char* suffix : {".csv", "_sa.csv", ".json", "_metrics.csv"}) {
      std::remove((stem + suffix).c_str());
    }
  }
  daemon.Stop();
  daemon.WaitForShutdown();
}

}  // namespace
}  // namespace ldv
