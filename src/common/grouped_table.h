#ifndef LDIV_COMMON_GROUPED_TABLE_H_
#define LDIV_COMMON_GROUPED_TABLE_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/memory_budget.h"
#include "common/table.h"
#include "common/types.h"
#include "common/workspace.h"

namespace ldv {

/// One maximal set of rows sharing the same value on every QI attribute
/// (the initial QI-groups Q_1..Q_s of Section 5.1). Rows are stored sorted
/// by SA value, with one "run" per distinct SA value, so that h(Q, v) lookups
/// and histogram-level tuple removals map back to concrete rows in O(1)
/// without per-group O(m) storage (s can be close to n, so dense per-group
/// arrays over the SA domain would cost O(s * m) memory).
///
/// A QiGroup does not own its storage: the three members are views into
/// arenas owned by the GroupedTable (s can approach n, and three vector
/// allocations per group used to dominate the build). The views stay valid
/// for the lifetime of the owning GroupedTable, including across moves.
struct QiGroup {
  /// The shared QI signature of all member rows.
  std::span<const Value> qi_values;
  /// Member rows, sorted by SA value (stable within a value).
  std::span<const RowId> rows;
  /// One entry per distinct SA value present: (value, begin offset into
  /// `rows`), sorted by value. The run for sa_runs[i] ends where run i+1
  /// begins (or at rows.size() for the last run).
  std::span<const std::pair<SaValue, std::uint32_t>> sa_runs;

  /// Total number of member rows |Q|.
  std::size_t size() const { return rows.size(); }

  /// Length of run `i`.
  std::uint32_t RunLength(std::size_t i) const {
    std::uint32_t end = (i + 1 < sa_runs.size()) ? sa_runs[i + 1].second
                                                 : static_cast<std::uint32_t>(rows.size());
    return end - sa_runs[i].second;
  }

  /// h(Q, v): number of member rows with SA value `v`. O(log k) in the
  /// number of distinct values.
  std::uint32_t SaCount(SaValue v) const;

  /// Dense histogram over an SA domain of size `m`.
  SaHistogram ToHistogram(std::size_t m) const;
};

/// A table grouped by exact QI signature: the starting point of the
/// tuple-minimization formulation (Section 5.1). The number of groups is the
/// paper's s.
class GroupedTable {
 public:
  /// Groups `table` by QI signature. O(n) expected time via hashing: rows
  /// are hashed with the SIMD column fold, scattered into 16 hash shards,
  /// and each shard resolves its signatures in a private open-addressing
  /// index; the shards then merge with a deterministic first-occurrence
  /// tie-break, so group ids, row order and SA runs are byte-identical to
  /// the sequential build at every thread count. When a Workspace is
  /// supplied, all scratch comes from its pools, so repeated grouping
  /// (sweeps, batch workers) does not touch the allocator.
  ///
  /// The build fans out to the workspace's threads() and sizes against
  /// its budget(): when one is set and the sharded build's O(n) scratch
  /// would not fit what remains of it, the ctor takes the chunk-at-a-time
  /// streaming build instead (see BuildChunked); both paths produce
  /// byte-identical groups, so the choice is purely a residency/speed
  /// trade. A null workspace means a default one (the process defaults).
  explicit GroupedTable(const Table& table, Workspace* workspace = nullptr);

  // Copying is deleted: groups_ holds views into the arenas, and a copied
  // GroupedTable would silently alias the original's storage. Moves keep
  // the views valid (vector moves transfer the heap buffers).
  GroupedTable(const GroupedTable&) = delete;
  GroupedTable& operator=(const GroupedTable&) = delete;
  GroupedTable(GroupedTable&&) = default;
  GroupedTable& operator=(GroupedTable&&) = default;

  /// Number of groups s.
  std::size_t group_count() const { return groups_.size(); }

  const QiGroup& group(GroupId g) const { return groups_[g]; }
  const std::vector<QiGroup>& groups() const { return groups_; }

  /// Total number of rows n across all groups.
  std::size_t row_count() const { return row_count_; }

  /// SA domain size m.
  std::size_t sa_domain_size() const { return sa_domain_size_; }

  /// Largest group size.
  std::uint64_t MaxGroupSize() const;

  /// Approximate resident footprint of the arenas and group table, the
  /// same sum ChargeArenas charges against the workspace's budget. Used by
  /// caches to account for a retained GroupedTable.
  std::uint64_t ApproxBytes() const;

  /// Drops the arena charge against the building run's budget without
  /// freeing the arenas. A GroupedTable that outlives its run (one
  /// retained by the engine's artifact cache) releases the charge here
  /// rather than staying accounted to a finished run; the engine charges
  /// the bytes to each run that pins it instead.
  void ReleaseBudgetCharge() { arena_reservation_.Reset(); }

  /// Chunk-at-a-time low-memory build: one sequential pass streams the
  /// columns in fixed row chunks through the SIMD hash fold, assigns
  /// first-occurrence group ranks in a growing (hash, gid) probe table of
  /// size O(s), and emits (gid << 32 | sa, row) records into a
  /// budget-bounded ExternalSorter whose merged order IS the arena layout
  /// (groups by first occurrence, rows by (sa, row) within a group) -- so
  /// peak scratch is O(s) + the sort buffer instead of the sharded
  /// build's ~32 bytes/row. Byte-identical to the ctor's sharded build.
  /// `sort_buffer_records` == 0 lets the sorter size its buffer from the
  /// workspace's budget; tests pass a small value to force multi-run spills.
  static GroupedTable BuildChunked(const Table& table, Workspace* workspace = nullptr,
                                   std::size_t sort_buffer_records = 0);

 private:
  GroupedTable() = default;

  void BuildSharded(const Table& table, Workspace& ws);
  void BuildChunkedImpl(const Table& table, Workspace& ws, std::size_t sort_buffer_records);
  void ChargeArenas(const Workspace& ws);

  // Backing storage for every group's views: signatures (group-major, d
  // values each), member rows (group-major, exactly n entries) and SA runs
  // (group-major with per-group capacity min(|Q|, m); the spans carry the
  // actual run counts).
  std::vector<Value> qi_arena_;
  std::vector<RowId> rows_arena_;
  std::vector<std::pair<SaValue, std::uint32_t>> runs_arena_;
  std::vector<QiGroup> groups_;
  std::size_t row_count_ = 0;
  std::size_t sa_domain_size_ = 0;
  MemoryReservation arena_reservation_;  // arenas charged to the building run's budget
};

}  // namespace ldv

#endif  // LDIV_COMMON_GROUPED_TABLE_H_
