#ifndef LDIV_COMMON_PAGED_COLUMN_H_
#define LDIV_COMMON_PAGED_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/memory_budget.h"
#include "common/schema.h"
#include "common/spill_file.h"
#include "common/table.h"
#include "common/types.h"

namespace ldv {

/// One out-of-core u32 column: an append-only sequence of fixed-size pages
/// spilled to its own unlinked temp file, so the on-disk byte layout is
/// column-contiguous (the file IS the column, a little-endian u32 array).
/// While open, appends stage into one private page-sized buffer, write
/// full pages through to the file and keep a running max -- resident cost
/// is exactly one page, and domain validation never reads a page back.
/// Seal() flushes the tail and memory-maps the file read-only; the sealed
/// column serves its whole range as one contiguous span, which is how
/// paged tables feed the unmodified solver kernels.
class PagedColumn {
 public:
  /// `file` is the column's private spill file; `page_bytes` must be a
  /// positive multiple of sizeof(u32). The staging page is charged to
  /// `budget` (may be null) until Seal.
  PagedColumn(std::unique_ptr<SpillFile> file, std::size_t page_bytes,
              std::shared_ptr<MemoryBudget> budget);

  ~PagedColumn();
  PagedColumn(const PagedColumn&) = delete;
  PagedColumn& operator=(const PagedColumn&) = delete;

  std::uint64_t size() const { return size_; }

  /// The largest value appended so far; 0 while empty.
  std::uint32_t max() const { return max_; }

  /// Appends `count` values (column must not be sealed).
  void Append(const std::uint32_t* values, std::size_t count);
  void Append(std::uint32_t value) {
    LDIV_CHECK(!sealed_) << "append to a sealed paged column";
    staging_.push_back(value);
    max_ = std::max(max_, value);
    ++size_;
    if (staging_.size() == page_values_) WritePage();
  }

  /// Flushes the tail page, releases the staging page and memory-maps the
  /// spill file read-only; false + `error` if the mapping fails.
  bool Seal(std::string* error);

  /// The whole sealed column as one contiguous span.
  std::span<const std::uint32_t> mapping() const;

 private:
  // Writes the full staging page to the file, under the paged.append
  // failpoint, and empties it.
  void WritePage();

  std::unique_ptr<SpillFile> file_;
  std::size_t page_values_;
  std::vector<std::uint32_t> staging_;  // one open page of pending appends
  MemoryReservation staging_reservation_;
  std::uint64_t size_ = 0;
  std::uint32_t max_ = 0;
  bool sealed_ = false;
  void* map_addr_ = nullptr;
  std::size_t map_bytes_ = 0;
};

/// Inert remnant of the deleted page cache: perfbench/replay.cc still
/// prints PagedTable::cache().stats() (always zero here) and sets
/// PagedTableBuilder::Options::cache_frames (ignored). All three go once
/// that replayer stops naming them.
class PageCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t refaults = 0;
  };
  Stats stats() const { return {}; }
};

/// A sealed out-of-core table: one mapped PagedColumn per QI attribute
/// plus the SA column. resident() exposes the mappings as a borrowed
/// Table, so every solver and the shared post-processing run on it
/// unchanged -- the OS pages column bytes in and out beneath the fixed
/// virtual mapping, while the explicitly budgeted structures (staging
/// pages, external-sort runs, grouping arenas) stay within MemoryBudget.
class PagedTable {
 public:
  std::uint64_t size() const { return resident_.size(); }

  /// The borrowed in-RAM view over the sealed mappings.
  const Table& resident() const { return resident_; }

  /// Always-zero stats; see PageCache.
  PageCache cache() const { return {}; }

 private:
  friend class PagedTableBuilder;
  PagedTable(std::vector<std::unique_ptr<PagedColumn>> columns, Table resident)
      : columns_(std::move(columns)), resident_(std::move(resident)) {}

  std::vector<std::unique_ptr<PagedColumn>> columns_;  // QIs, then SA; resident_ borrows them
  Table resident_;
};

/// Streaming writer for a PagedTable: rows (or column chunks) go straight
/// into per-column staging pages and spill files, so ingestion never
/// materializes the row set. Finish() checks every column's running max
/// against the schema domains, then seals and maps each column.
class PagedTableBuilder {
 public:
  struct Options {
    std::size_t page_bytes = kDefaultPageBytes;
    // The ingesting run's budget; may be null. Shared so the built table
    // can outlive the run it was ingested under.
    std::shared_ptr<MemoryBudget> budget;
    std::size_t cache_frames = 0;  // ignored; see PageCache
  };

  /// Creates the spill files; null + `error` when temp space is missing.
  static std::unique_ptr<PagedTableBuilder> Create(std::size_t qi_count, const Options& options,
                                                   std::string* error);

  /// Appends one row: qi_values.size() must equal the QI count.
  void AppendRow(std::span<const Value> qi_values, SaValue sa);

  /// Bulk append of one column's next `count` values (columns may be fed
  /// independently but must all reach the same length by Finish).
  void AppendQiChunk(AttrId attr, const Value* values, std::size_t count);
  void AppendSaChunk(const SaValue* values, std::size_t count);

  /// Validates against `schema`, seals and maps every column, and returns
  /// the finished table; null + `error` on out-of-domain values, ragged
  /// columns, or mapping failure.
  std::unique_ptr<PagedTable> Finish(Schema schema, std::string* error);

 private:
  PagedTableBuilder() = default;

  std::uint64_t rows_ = 0;
  std::vector<std::unique_ptr<PagedColumn>> qi_columns_;
  std::unique_ptr<PagedColumn> sa_column_;
};

}  // namespace ldv

#endif  // LDIV_COMMON_PAGED_COLUMN_H_
