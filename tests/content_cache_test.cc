// ContentCache tests: the LRU under one byte capacity (order, refresh,
// eviction, oversized and capacity-0 values, pinning), per-kind hit/miss
// counts, single-flight builds (concurrent misses share one build, failed
// builds are retried by their waiters), and content-identity keys. Then
// the cache behind the engine and the daemon: a changed CSV input misses
// (including a same-size rewrite within one second and a rename over the
// path), forced eviction refaults byte for byte, and concurrent daemon
// submissions share one artifact (run under TSan in CI).

#include "engine/content_cache.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
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

using Kind = ContentCache::Kind;
using Order = std::vector<RowId>;

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

// A Hilbert-order value of `n` row ids: 4n resident bytes.
std::shared_ptr<const Order> MakeOrder(std::size_t n) {
  auto order = std::make_shared<Order>();
  for (std::size_t i = 0; i < n; ++i) order->push_back(static_cast<RowId>(i));
  return order;
}

// The order cached under `key`, built as MakeOrder(n) on a miss.
std::shared_ptr<const Order> GetOrder(ContentCache& cache, const std::string& key, std::size_t n,
                                      bool* hit) {
  return cache.GetOrBuild<Order>(Kind::kHilbertOrder, key, [n] { return MakeOrder(n); }, hit);
}

TEST(ContentCache, LruOrderRefreshAndEvictionPastCapacity) {
  ContentCache cache(/*capacity_bytes=*/1000);
  bool hit = true;
  auto a = GetOrder(cache, "a", 100, &hit);  // 400 bytes each
  EXPECT_FALSE(hit);
  GetOrder(cache, "b", 100, &hit);
  EXPECT_EQ(GetOrder(cache, "a", 1, &hit), a) << "a hit returns the shared value, not a copy";
  EXPECT_TRUE(hit);
  GetOrder(cache, "c", 100, &hit);  // past capacity: evicts "b", the least recently used

  ContentCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes, 800u);

  EXPECT_EQ(GetOrder(cache, "a", 1, &hit), a);
  EXPECT_TRUE(hit);
  GetOrder(cache, "b", 100, &hit);
  EXPECT_FALSE(hit) << "the evicted entry is rebuilt";
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u) << "re-inserting b evicts c, now the least recently used";
  EXPECT_EQ(stats.artifacts.hits, 2u);
  EXPECT_EQ(stats.artifacts.misses, 4u);
}

TEST(ContentCache, OversizedAndZeroCapacityValuesAreNotKept) {
  ContentCache disabled(0);
  bool hit = true;
  GetOrder(disabled, "a", 1, &hit);
  GetOrder(disabled, "a", 1, &hit);
  EXPECT_FALSE(hit) << "capacity 0 keeps nothing";
  EXPECT_EQ(disabled.stats().insertions, 0u);

  ContentCache small(100);
  auto big = GetOrder(small, "big", 26, &hit);  // 104 bytes
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->size(), 26u) << "an oversized value is still returned to its caller";
  EXPECT_EQ(small.stats().entries, 0u);
  EXPECT_EQ(small.stats().resident_bytes, 0u);
}

TEST(ContentCache, PinnedValuesOutliveEviction) {
  ContentCache cache(800);
  bool hit = false;
  std::shared_ptr<const Order> pinned = GetOrder(cache, "a", 100, &hit);
  GetOrder(cache, "b", 100, &hit);
  GetOrder(cache, "c", 100, &hit);  // past capacity: evicts "a"
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(pinned->size(), 100u) << "the cache only drops its own reference";
  EXPECT_EQ(pinned->back(), 99u);
}

TEST(ContentCache, CountsHitsAndMissesPerKind) {
  ContentCache cache(1u << 20);
  const std::function<std::shared_ptr<const EngineTable>()> table = [] {
    return std::make_shared<EngineTable>(testutil::PaperTable1());
  };
  bool hit = false;
  for (int i = 0; i < 3; ++i) cache.GetOrBuild(Kind::kTable, "t", table, &hit);
  for (int i = 0; i < 2; ++i) GetOrder(cache, "t", 4, &hit);
  const ContentCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.tables.hits, 2u);
  EXPECT_EQ(stats.tables.misses, 1u);
  EXPECT_EQ(stats.artifacts.hits, 1u);
  EXPECT_EQ(stats.artifacts.misses, 1u);
}

// Six callers miss on one key at once; exactly one of them builds it and
// all of them get the value it built.
template <typename T>
void ExpectOneSharedBuild(ContentCache& cache, Kind kind,
                          const std::function<std::shared_ptr<const T>()>& make) {
  constexpr std::size_t kCallers = 6;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const T>> got(kCallers);
  std::vector<char> hits(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      bool hit = false;
      got[i] = cache.GetOrBuild<T>(
          kind, "shared",
          [&] {
            ++builds;
            // Slow enough that every caller arrives while it is in flight.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return make();
          },
          &hit);
      hits[i] = hit ? 1 : 0;
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(got[0], nullptr);
  for (std::size_t i = 1; i < kCallers; ++i) EXPECT_EQ(got[i], got[0]);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 0), 1) << "exactly one caller built it";
}

TEST(ContentCache, ConcurrentMissesShareOneBuild) {
  {
    SCOPED_TRACE("table key");
    ContentCache cache(1u << 20);
    ExpectOneSharedBuild<EngineTable>(cache, Kind::kTable, [] {
      return std::make_shared<EngineTable>(testutil::PaperTable1());
    });
    const ContentCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.tables.misses, 1u);
    EXPECT_EQ(stats.tables.hits, 5u);
    EXPECT_EQ(stats.insertions, 1u);
  }
  {
    SCOPED_TRACE("artifact key");
    ContentCache cache(1u << 20);
    ExpectOneSharedBuild<Order>(cache, Kind::kHilbertOrder, [] { return MakeOrder(8); });
    const ContentCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.artifacts.misses, 1u);
    EXPECT_EQ(stats.artifacts.hits, 5u);
    EXPECT_EQ(stats.insertions, 1u);
  }
  {
    SCOPED_TRACE("capacity 0");
    ContentCache cache(0);
    ExpectOneSharedBuild<Order>(cache, Kind::kHilbertOrder, [] { return MakeOrder(8); });
    EXPECT_EQ(cache.stats().insertions, 0u) << "waiters share a build that is not kept";
  }
}

TEST(ContentCache, NullAndThrowingBuildsAreRetriedByTheirWaiters) {
  for (const bool throws : {false, true}) {
    SCOPED_TRACE(throws ? "throwing build" : "null build");
    ContentCache cache(1u << 20);
    std::atomic<bool> started{false};
    std::thread failing([&] {
      const std::function<std::shared_ptr<const Order>()> fail =
          [&]() -> std::shared_ptr<const Order> {
        started = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (throws) throw std::runtime_error("build failed");
        return nullptr;
      };
      bool hit = true;
      if (throws) {
        EXPECT_THROW(cache.GetOrBuild(Kind::kHilbertOrder, "flaky", fail, &hit),
                     std::runtime_error);
      } else {
        EXPECT_EQ(cache.GetOrBuild(Kind::kHilbertOrder, "flaky", fail, &hit), nullptr);
        EXPECT_FALSE(hit);
      }
    });
    while (!started) std::this_thread::yield();
    bool hit = true;
    std::shared_ptr<const Order> order = GetOrder(cache, "flaky", 3, &hit);
    failing.join();
    ASSERT_NE(order, nullptr);
    EXPECT_EQ(order->size(), 3u);
    EXPECT_FALSE(hit) << "the waiter built the value itself after the failure";
    EXPECT_EQ(cache.stats().entries, 1u) << "only the successful build is kept";
  }
}

void Stamp(const std::string& path, std::time_t seconds, long nanoseconds) {
  const struct timespec times[2] = {{seconds, nanoseconds}, {seconds, nanoseconds}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

TEST(ContentCache, KeysSeparateKindsSchemasAndCsvIdentities) {
  // One key string names one value per kind.
  ContentCache cache(1u << 20);
  bool hit = true;
  const Table paper = testutil::PaperTable1();
  GetOrder(cache, "k", 2, &hit);
  cache.GetOrBuild<GroupedTable>(
      Kind::kGrouped, "k", [&] { return std::make_shared<GroupedTable>(paper); }, &hit);
  EXPECT_FALSE(hit) << "a grouping never aliases an order under the same key";
  EXPECT_EQ(cache.stats().entries, 2u);

  // Artifact keys carry the table key and the QI schema.
  Rng rng(3);
  const Table narrow = testutil::RandomEligibleTable(rng, 40, {6, 4}, 5, 2);
  const Table wide = testutil::RandomEligibleTable(rng, 40, {6, 5}, 5, 2);
  EXPECT_NE(ContentCache::ArtifactKey("ds", narrow), ContentCache::ArtifactKey("ds", wide));
  EXPECT_NE(ContentCache::ArtifactKey("ds", narrow), ContentCache::ArtifactKey("other", narrow));

  // CSV keys: format, schema, and the file's identity down to the inode
  // and the nanosecond stamp.
  EXPECT_EQ(ContentCache::CsvKey("/definitely/not/a/file.csv", CsvFormat::kCoded, ""), "")
      << "unstatable files are uncacheable so the loader reports the real error";
  const std::string path = testing::TempDir() + "content_cache_key.csv";
  const std::string other = testing::TempDir() + "content_cache_key_other.csv";
  ASSERT_TRUE(WriteTableCsv(narrow, path));
  Stamp(path, 1700000000, 100000000);
  const std::string key = ContentCache::CsvKey(path, CsvFormat::kCoded, "s");
  EXPECT_EQ(ContentCache::CsvKey(path, CsvFormat::kCoded, "s"), key);
  EXPECT_NE(ContentCache::CsvKey(path, CsvFormat::kRaw, "s"), key);
  EXPECT_NE(ContentCache::CsvKey(path, CsvFormat::kCoded, "t"), key);
  Stamp(path, 1700000000, 200000000);
  EXPECT_NE(ContentCache::CsvKey(path, CsvFormat::kCoded, "s"), key) << "same second, new ns";
  const std::string restamped = ContentCache::CsvKey(path, CsvFormat::kCoded, "s");
  ASSERT_TRUE(WriteTableCsv(narrow, other));
  Stamp(other, 1700000000, 200000000);
  ASSERT_EQ(std::rename(other.c_str(), path.c_str()), 0);
  EXPECT_NE(ContentCache::CsvKey(path, CsvFormat::kCoded, "s"), restamped)
      << "same bytes and stamp, but a new inode";
  std::remove(path.c_str());

  // Synthetic keys: the resolved generator label.
  DatasetSpec cell;
  cell.name = "sal";
  cell.n = 900;
  cell.seed = 1;
  cell.d = 3;
  const std::string synthetic = ContentCache::SyntheticKey(cell);
  EXPECT_NE(synthetic.find("sal"), std::string::npos);
  EXPECT_NE(synthetic.find("900"), std::string::npos);
  cell.seed = 2;
  EXPECT_NE(ContentCache::SyntheticKey(cell), synthetic);
}

TEST(ContentCacheEngine, CsvContentChangeInvalidatesArtifacts) {
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

TEST(ContentCacheEngine, SchemaSpellingsShareOneTableEntry) {
  // "79,2,9|50" names its attributes Q1..Q3 and S, exactly as the spelled-
  // out form does: one Schema, so one cache entry and the same outputs.
  Rng rng(5);
  const Table table = testutil::RandomEligibleTable(rng, 80, {79, 2, 9}, 50, 2);
  const std::string path = testing::TempDir() + "spelling_input.csv";
  ASSERT_TRUE(WriteTableCsv(table, path));

  JobSpec spec;
  spec.input = path;
  spec.algorithms = {Algorithm::kTp};
  spec.timings = false;
  Engine engine;
  std::vector<std::string> outputs;
  std::vector<std::uint64_t> hits;
  for (const char* schema : {"79,2,9|50", "Q1:79,Q2:2,Q3:9|S:50"}) {
    spec.schema_spec = schema;
    spec.out = testing::TempDir() + "spelling_out" + std::to_string(outputs.size());
    Expected<ExecuteSummary, PipelineError> run = engine.Execute(spec);
    ASSERT_TRUE(run.ok()) << run.error().message;
    hits.push_back(run->cache_hits);
    outputs.push_back(ReadFile(spec.out + ".csv") + ReadFile(spec.out + ".json") +
                      ReadFile(spec.out + "_metrics.csv"));
  }
  EXPECT_EQ(hits, (std::vector<std::uint64_t>{0, 1})) << "the second spelling is a table hit";
  EXPECT_FALSE(outputs[0].empty());
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(engine.cache().stats().tables.misses, 1u);
  std::remove(path.c_str());
}

TEST(ContentCacheEngine, SameSizeRewriteAndRenameMissTheCache) {
  // The same rows with every SA value shifted: the same byte count, a
  // different release.
  Rng rng(9);
  const Table table = testutil::RandomEligibleTable(rng, 60, {6, 4}, 5, 2);
  Table shifted(table.schema());
  for (RowId r = 0; r < table.size(); ++r) {
    shifted.AppendRow(table.qi_row(r), (table.sa(r) + 1) % 5);
  }
  const std::string path = testing::TempDir() + "stale_input.csv";
  const std::string next = testing::TempDir() + "stale_input_next.csv";
  constexpr std::time_t kSecond = 1700000000;

  JobSpec spec;
  spec.input = path;
  spec.schema_spec = FormatSchemaSpec(table.schema());
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;
  spec.out = testing::TempDir() + "stale_out";
  // One Execute of `spec` on `engine`: its summary and the release and
  // report it wrote.
  const auto execute = [&](Engine& engine, ExecuteSummary* summary) {
    Expected<ExecuteSummary, PipelineError> run = engine.Execute(spec);
    EXPECT_TRUE(run.ok()) << run.error().message;
    if (run.ok()) *summary = run.value();
    return ReadFile(spec.out + ".csv") + ReadFile(spec.out + ".json");
  };

  Engine engine;
  ExecuteSummary summary;
  ASSERT_TRUE(WriteTableCsv(table, path));
  Stamp(path, kSecond, 100000000);
  const std::string original = execute(engine, &summary);
  EXPECT_EQ(summary.cache_misses, 1u);
  EXPECT_EQ(summary.artifact_misses, 1u);

  // Rewritten in place within the same second, at the same size.
  struct ::stat before{};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  ASSERT_TRUE(WriteTableCsv(shifted, path));
  Stamp(path, kSecond, 200000000);
  struct ::stat after{};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  ASSERT_EQ(after.st_size, before.st_size);
  const std::string rewritten = execute(engine, &summary);
  EXPECT_EQ(summary.cache_hits, 0u) << "the edited file must not be served from the cache";
  EXPECT_EQ(summary.cache_misses, 1u);
  EXPECT_EQ(summary.artifact_hits, 0u);
  EXPECT_EQ(summary.artifact_misses, 1u);
  EXPECT_NE(rewritten, original);
  Engine fresh;
  ExecuteSummary fresh_summary;
  EXPECT_EQ(execute(fresh, &fresh_summary), rewritten) << "the release of a fresh engine";

  // A same-size, same-stamp file renamed over the path.
  ASSERT_TRUE(WriteTableCsv(table, next));
  Stamp(next, kSecond, 200000000);
  ASSERT_EQ(std::rename(next.c_str(), path.c_str()), 0);
  EXPECT_EQ(execute(engine, &summary), original);
  EXPECT_EQ(summary.cache_misses, 1u) << "a file renamed over the input is a new input";
  EXPECT_EQ(summary.artifact_misses, 1u);

  std::remove(path.c_str());
  for (const char* suffix : {".csv", ".json", "_metrics.csv"}) {
    std::remove((spec.out + suffix).c_str());
  }
}

TEST(ContentCacheEngine, ForcedEvictionRefaultsByteForByte) {
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
  const std::uint64_t resident = roomy.cache().stats().resident_bytes;
  ASSERT_GT(resident, 0u);

  // A cache one byte short of the table and both artifacts evicts as the
  // last one lands; the next run refaults what it lost and must still
  // match.
  Engine tight(EngineOptions{resident - 1});
  ASSERT_TRUE(tight.Run(spec).ok());
  EXPECT_GT(tight.cache().stats().evictions, 0u);
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

TEST(ContentCacheDaemon, ConcurrentSubmissionsShareOneArtifact) {
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
