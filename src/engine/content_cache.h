#ifndef LDIV_ENGINE_CONTENT_CACHE_H_
#define LDIV_ENGINE_CONTENT_CACHE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/grouped_table.h"
#include "common/table.h"
#include "common/types.h"
#include "data/dataset.h"
#include "metrics/kl_divergence.h"

namespace ldv {

struct EngineTable;

/// Resident-byte estimates of what the cache holds, charged against its
/// capacity.
std::uint64_t ResidentBytes(const EngineTable& table);
std::uint64_t ResidentBytes(const GroupedTable& grouped);
std::uint64_t ResidentBytes(const std::vector<RowId>& order);
std::uint64_t ResidentBytes(const std::vector<KlPoint>& points);

/// The engine's one cross-job cache: input tables and the three artifacts
/// derived from them -- the exact-signature GroupedTable TP and TP+ start
/// from, the sorted Hilbert row order, and the distinct data points every
/// KL estimate sums over -- in one LRU under one byte capacity, keyed by
/// content identity (see CsvKey, SyntheticKey, ArtifactKey; the three
/// artifact kinds share a table's ArtifactKey). Entries hold shared
/// ownership, so an eviction only drops the cache's reference: runs that
/// pinned a value keep using it.
///
/// One mutex guards the LRU, the resident-byte count, the counters and
/// the builds in flight. Concurrent misses on one key share one build:
/// the first caller builds, the others wait and count as hits -- even
/// when the value is not kept (capacity 0, or larger than the capacity).
/// A build that fails (returns null or throws) is handed to no one: its
/// waiters retry, so each reports its own error.
///
/// Paged tables never reach the cache: they hold reservations against
/// their run's memory budget, so the engine rebuilds them (and their
/// artifacts) per run and records the bypass. A GroupedTable must drop
/// its budget charge (GroupedTable::ReleaseBudgetCharge) before its build
/// returns, since a cached value may outlive the run that built it.
class ContentCache {
 public:
  /// What an entry holds; a key names one value per kind.
  enum class Kind { kTable, kGrouped, kHilbertOrder, kKlPoints };

  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  struct Stats {
    Counts tables;     ///< Kind::kTable lookups
    Counts artifacts;  ///< Kind::kGrouped and Kind::kHilbertOrder lookups
    Counts kl_points;  ///< Kind::kKlPoints lookups
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t entries = 0;
    /// Table materializations that skipped the cache because they paged.
    std::uint64_t bypassed_paged = 0;
  };

  /// `capacity_bytes` == 0 keeps nothing (builds are still shared).
  explicit ContentCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The value cached under (`kind`, `key`); on a miss, the one `build`
  /// returns, kept when its ResidentBytes fit the capacity (evicting
  /// least-recently-used entries past it). `*hit` is false only when this
  /// caller ran the build. A failed build returns null (or rethrows).
  template <typename T>
  std::shared_ptr<const T> GetOrBuild(Kind kind, const std::string& key,
                                      const std::function<std::shared_ptr<const T>()>& build,
                                      bool* hit) {
    return std::static_pointer_cast<const T>(GetOrBuildErased(
        kind, key,
        [&] {
          Entry built;
          std::shared_ptr<const T> value = build();
          if (value != nullptr) built.bytes = ResidentBytes(*value);
          built.value = std::move(value);
          return built;
        },
        hit));
  }

  /// Counts a table materialization that paged and so bypassed the cache.
  void RecordPagedBypass();

  Stats stats() const;

  /// Content-identity key of a CSV input: format, schema, path, and the
  /// file's device, inode, size and modification time in nanoseconds, so
  /// an edited file or one renamed over the path misses instead of
  /// serving stale rows. A same-size rewrite in place within one
  /// filesystem timestamp tick still cannot be told apart. The engine
  /// passes the parsed schema re-formatted (FormatSchemaSpec), so every
  /// spelling of one schema shares a key. Returns "" (uncacheable; the
  /// caller loads directly) when the file cannot be stat'ed -- the loader
  /// then reports the real open error.
  static std::string CsvKey(const std::string& path, CsvFormat format,
                            const std::string& schema_spec);

  /// Content-identity key of a synthetic table: the resolved generator
  /// label (name, n, seed, d), which fully determines the rows.
  static std::string SyntheticKey(const DatasetSpec& resolved_cell);

  /// Key of an artifact derived from the table cached under `table_key`:
  /// that key plus the QI-schema fingerprint (attribute count, domain
  /// sizes, SA domain). Artifacts depend on nothing else -- never on `l`
  /// or the algorithm.
  static std::string ArtifactKey(const std::string& table_key, const Table& table);

 private:
  struct Entry {
    Kind kind = Kind::kTable;
    std::string key;
    std::shared_ptr<const void> value;
    std::uint64_t bytes = 0;
  };
  struct Flight {
    bool done = false;
    std::shared_ptr<const void> value;
  };
  // Per Kind, so a lookup needs no composite key.
  template <typename V>
  using PerKind = std::array<std::unordered_map<std::string, V>, 4>;

  std::shared_ptr<const void> GetOrBuildErased(Kind kind, const std::string& key,
                                               const std::function<Entry()>& build, bool* hit);
  // Ends `flight` with `built` (value null = failed): hands it to the
  // waiters, wakes them, and keeps the value when it fits.
  void Land(Kind kind, const std::string& key, Flight* flight, Entry built);

  const std::uint64_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable landed_;
  std::list<Entry> lru_;  // front = most recently used
  PerKind<std::list<Entry>::iterator> index_;
  PerKind<std::shared_ptr<Flight>> flights_;
  Stats stats_;
};

}  // namespace ldv

#endif  // LDIV_ENGINE_CONTENT_CACHE_H_
