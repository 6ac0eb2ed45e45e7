#ifndef LDIV_COMMON_EXTERNAL_SORT_H_
#define LDIV_COMMON_EXTERNAL_SORT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "common/spill_file.h"
#include "common/workspace.h"

namespace ldv {

/// One record of an external sort: ordered by (key, payload). Callers
/// pack their sort key into `key` (e.g. the Hilbert curve index, or
/// group_rank << 32 | sa_value) and the row id into `payload`; the
/// payload tie-break is what makes the order total, so the merged output
/// is byte-deterministic however records were distributed across runs.
struct SortRecord {
  std::uint64_t key = 0;
  std::uint64_t payload = 0;

  friend bool operator<(const SortRecord& a, const SortRecord& b) {
    return a.key != b.key ? a.key < b.key : a.payload < b.payload;
  }
  friend bool operator==(const SortRecord& a, const SortRecord& b) {
    return a.key == b.key && a.payload == b.payload;
  }
};

/// Budget-bounded external merge sort of SortRecords: Add() buffers up to
/// buffer_records in RAM; full buffers are sorted (chunk-parallel via the
/// parallel runtime, then merged) and spilled as one sorted run to an
/// unlinked temp file. Finish() freezes input, and Next() streams the
/// k-way merge of all runs in ascending (key, payload) order through one
/// small read buffer per run. When everything fit in one buffer, no spill
/// I/O happens at all -- the in-RAM fast path sorts and serves directly.
class ExternalSorter {
 public:
  struct Options {
    /// In-RAM run size (16 B each); 0 = a quarter of what `budget` has
    /// left, clamped to [2^16, 2^22] records (64 MiB worth unbudgeted).
    std::size_t buffer_records = 0;
    std::size_t merge_buffer_records = 1u << 14;  // per-run merge read buffer
    std::shared_ptr<MemoryBudget> budget;
    /// The caller's workspace: runs sort at its threads(). Borrowed, and
    /// used only on the thread that calls Add/Finish; null = a default
    /// workspace.
    Workspace* workspace = nullptr;
  };

  /// Creates the sorter (and its spill file); null + `error` when temp
  /// space is missing.
  static std::unique_ptr<ExternalSorter> Create(const Options& options, std::string* error);

  ~ExternalSorter();
  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  void Add(const SortRecord& record);
  void Add(std::uint64_t key, std::uint64_t payload) { Add(SortRecord{key, payload}); }

  /// Sorts and (if runs were spilled) flushes the final run; after this,
  /// Next() streams the merged order.
  void Finish();

  /// Produces the next record in ascending order; false when drained.
  bool Next(SortRecord* out);

  std::uint64_t record_count() const { return record_count_; }

  /// Number of sorted runs the merge reads (1 = in-RAM fast path).
  std::size_t run_count() const;

 private:
  struct Run {
    std::uint64_t offset = 0;  // byte offset in the spill file
    std::uint64_t records = 0;
  };

  struct MergeSource {
    std::vector<SortRecord> buffer;
    std::uint64_t next_record = 0;  // records consumed from the run
    std::size_t buffer_pos = 0;
    std::size_t run = 0;
  };

  explicit ExternalSorter(const Options& options);

  void SortBuffer();
  void SpillRun();
  bool RefillSource(MergeSource& source);

  Options options_;
  std::unique_ptr<SpillFile> file_;
  std::vector<SortRecord> buffer_;
  MemoryReservation buffer_reservation_;
  std::vector<Run> runs_;
  std::uint64_t record_count_ = 0;
  bool finished_ = false;

  // Merge state (built by Finish).
  std::vector<MergeSource> sources_;
  MemoryReservation merge_reservation_;
  std::vector<std::uint32_t> heap_;  // indexes into sources_, min-heap
  std::size_t ram_pos_ = 0;          // cursor for the single-run fast path
};

}  // namespace ldv

#endif  // LDIV_COMMON_EXTERNAL_SORT_H_
