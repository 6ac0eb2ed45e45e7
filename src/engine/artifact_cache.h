#ifndef LDIV_ENGINE_ARTIFACT_CACHE_H_
#define LDIV_ENGINE_ARTIFACT_CACHE_H_

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
#include "engine/single_flight.h"

namespace ldv {

/// Cross-job cache of derived solver artifacts -- the GroupedTable
/// signature index and the sorted Hilbert row order -- generalizing the
/// DatasetCache pattern one level up the pipeline: a mutex-guarded LRU
/// under a byte budget, keyed by the dataset's content-identity cache key
/// plus a QI-schema fingerprint (both artifacts depend only on the data
/// and its schema, never on `l` or the algorithm). Entries hold shared
/// ownership, so an eviction only drops the cache's reference: daemon
/// workers and batch threads that pinned the artifact keep using it.
///
/// Cached GroupedTables must have released their arena reservation
/// (GroupedTable::ReleaseBudgetCharge) before insertion -- every run has
/// its own MemoryBudget, and a cached artifact must not stay charged to
/// the run that built it. The engine charges the bytes to each run that
/// pins the artifact instead, with a reservation scoped to that run.
/// Concurrent runs that miss on the same key share one build (see
/// GetOrBuildGrouped).
class ArtifactCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t entries = 0;
  };

  /// `capacity_bytes` == 0 disables caching (every Lookup misses). The
  /// capacity is fixed for the cache's lifetime.
  explicit ArtifactCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The cached grouping / order for a dataset key, or null on a miss.
  std::shared_ptr<const GroupedTable> LookupGrouped(const std::string& key);
  std::shared_ptr<const std::vector<RowId>> LookupOrder(const std::string& key);

  /// The grouping / order for `key`: the cached one, or on a miss the one
  /// `build` produces, inserted before it is returned when its bytes fit
  /// `*insert_room` -- the caller's own allowance for what it adds, which
  /// an insertion draws down; the capacity still bounds the total.
  /// Concurrent misses on one key share one build (SingleFlight): the
  /// first caller builds, the others wait for it and count as hits.
  /// `*hit` is false only when this caller built it.
  std::shared_ptr<const GroupedTable> GetOrBuildGrouped(
      const std::string& key, const std::function<std::shared_ptr<const GroupedTable>()>& build,
      std::uint64_t* insert_room, bool* hit);
  std::shared_ptr<const std::vector<RowId>> GetOrBuildOrder(
      const std::string& key,
      const std::function<std::shared_ptr<const std::vector<RowId>>()>& build,
      std::uint64_t* insert_room, bool* hit);

  /// Cache an artifact (estimated at `bytes` resident) under its key,
  /// evicting least-recently-used entries past capacity. An entry larger
  /// than the whole capacity is not cached; re-inserting a key refreshes
  /// its recency.
  void InsertGrouped(const std::string& key, std::shared_ptr<const GroupedTable> grouped,
                     std::uint64_t bytes);
  void InsertOrder(const std::string& key, std::shared_ptr<const std::vector<RowId>> order,
                   std::uint64_t bytes);

  Stats stats() const;
  std::uint64_t capacity_bytes() const { return capacity_; }
  void Clear();

  /// Full artifact keys: the artifact kind, the dataset's DatasetCache
  /// content key, and the QI-schema fingerprint.
  static std::string GroupedKey(const std::string& dataset_key, const Table& table);
  static std::string OrderKey(const std::string& dataset_key, const Table& table);

  /// Compact fingerprint of the table's QI schema (attribute count and
  /// per-attribute domain sizes) and SA domain -- everything the grouping
  /// and the Hilbert encode depend on beyond the row data itself.
  static std::string SchemaFingerprint(const Table& table);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> artifact;
    std::uint64_t bytes = 0;
  };

  struct Built {
    std::shared_ptr<const void> artifact;
    std::uint64_t bytes = 0;
  };

  // Lookup without counting (GetOrBuildRaw counts its outcome once).
  std::shared_ptr<const void> FindRaw(const std::string& key);
  std::shared_ptr<const void> LookupRaw(const std::string& key);
  std::shared_ptr<const void> GetOrBuildRaw(const std::string& key,
                                            const std::function<Built()>& build,
                                            std::uint64_t* insert_room, bool* hit);
  // False when the entry is larger than the whole capacity (not cached).
  bool InsertRaw(const std::string& key, std::shared_ptr<const void> artifact,
                 std::uint64_t bytes);
  void EvictPastCapacityLocked();

  const std::uint64_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
  SingleFlight flights_;
};

}  // namespace ldv

#endif  // LDIV_ENGINE_ARTIFACT_CACHE_H_
