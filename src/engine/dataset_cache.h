#ifndef LDIV_ENGINE_DATASET_CACHE_H_
#define LDIV_ENGINE_DATASET_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "data/dataset.h"
#include "engine/single_flight.h"

namespace ldv {

struct EngineTable;

/// Cross-job cache of materialized input tables, the piece that lets a
/// long-running daemon skip straight to the solve on repeat traffic: a
/// mutex-guarded LRU keyed by content identity (CSV inputs by
/// path + mtime + size + format + schema, synthetic inputs by their fully
/// resolved generator label), holding shared ownership of immutable
/// EngineTables up to a byte capacity. Eviction drops the cache's
/// reference only -- jobs still holding the table keep it alive.
///
/// Only in-RAM tables are cached: a --memory-budget run that pages its
/// table holds page-cache and staging reservations against *that* run's
/// budget, and serving it to later runs would pin spill files and
/// misattribute its resident bytes, so paged tables are rebuilt per run
/// (the bypass is counted in Stats::bypassed_paged). Budgeted runs whose
/// table fits in RAM cache normally. Concurrent runs that miss on the
/// same key share one load (see GetOrBuild).
class DatasetCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t entries = 0;
    /// Materializations that skipped the cache because the table was truly
    /// paged (see RecordPagedBypass); the only remaining bypass reason.
    std::uint64_t bypassed_paged = 0;
  };

  /// `capacity_bytes` == 0 disables caching (every Lookup misses).
  explicit DatasetCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The cached table for `key`, or null on a miss. Counts hit/miss.
  std::shared_ptr<const EngineTable> Lookup(const std::string& key);

  /// The table for `key`: the cached one, or on a miss the one `build`
  /// loads, inserted before it is returned. Concurrent
  /// misses on one key share one build (SingleFlight): the first caller
  /// builds, the others wait for it and count as hits. A null build result
  /// is a failed load and is not cached. `*hit` is false only when this
  /// caller ran the build.
  std::shared_ptr<const EngineTable> GetOrBuild(
      const std::string& key, const std::function<std::shared_ptr<const EngineTable>()>& build,
      bool* hit);

  /// Caches `table` (estimated at `bytes` resident) under `key`, evicting
  /// least-recently-used entries past capacity. An entry larger than the
  /// whole capacity is not cached. Re-inserting an existing key refreshes
  /// its recency.
  void Insert(const std::string& key, std::shared_ptr<const EngineTable> table,
              std::uint64_t bytes);

  Stats stats() const;
  std::uint64_t capacity_bytes() const { return capacity_; }
  void Clear();

  /// Records a materialization that bypassed the cache because the table
  /// came up paged (paged tables are rebuilt per run; see the class note).
  void RecordPagedBypass();

  /// Content-identity key of a CSV input: format + schema + the file's
  /// path, mtime and size, so an edited or replaced file misses instead of
  /// serving stale rows. Returns "" (uncacheable; caller loads directly)
  /// when the file cannot be stat'ed -- the loader then reports the real
  /// open error.
  static std::string CsvKey(const std::string& path, CsvFormat format,
                            const std::string& schema_spec);

  /// Content-identity key of a synthetic table: the resolved generator
  /// label (name, n, seed, d), which fully determines the rows.
  static std::string SyntheticKey(const DatasetSpec& resolved_cell);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const EngineTable> table;
    std::uint64_t bytes = 0;
  };

  // Lookup without counting (GetOrBuild counts its outcome once).
  std::shared_ptr<const EngineTable> Find(const std::string& key);
  void EvictPastCapacityLocked();

  const std::uint64_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
  SingleFlight flights_;
};

}  // namespace ldv

#endif  // LDIV_ENGINE_DATASET_CACHE_H_
