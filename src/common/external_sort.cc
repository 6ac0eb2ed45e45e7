#include "common/external_sort.h"

#include <algorithm>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/workspace.h"

namespace ldv {

namespace {

/// Chunk size for parallel run sorting: chunks are sorted via the
/// parallel runtime, then combined with a sequential inplace_merge tree,
/// so the run's byte content equals a plain std::sort at any thread count.
constexpr std::size_t kRunSortGrain = 1u << 16;

constexpr std::size_t kRecordBytes = sizeof(SortRecord);

}  // namespace

std::unique_ptr<ExternalSorter> ExternalSorter::Create(const Options& options,
                                                       std::string* error) {
  std::unique_ptr<SpillFile> file = SpillFile::Create(error);
  if (file == nullptr) return nullptr;
  std::unique_ptr<ExternalSorter> sorter(new ExternalSorter(options));
  sorter->file_ = std::move(file);
  return sorter;
}

ExternalSorter::ExternalSorter(const Options& options) : options_(options) {
  LDIV_CHECK_GT(options_.buffer_records, 0u);
  LDIV_CHECK_GT(options_.merge_buffer_records, 0u);
  buffer_.reserve(options_.buffer_records);
  buffer_reservation_ =
      MemoryReservation(options_.budget, options_.buffer_records * kRecordBytes);
}

ExternalSorter::~ExternalSorter() = default;

void ExternalSorter::Add(const SortRecord& record) {
  LDIV_CHECK(!finished_) << "Add after Finish";
  buffer_.push_back(record);
  ++record_count_;
  if (buffer_.size() == options_.buffer_records) SpillRun();
}

void ExternalSorter::SortBuffer() {
  const std::size_t n = buffer_.size();
  if (n <= kRunSortGrain) {
    std::sort(buffer_.begin(), buffer_.end());
    return;
  }
  Workspace local;
  Workspace& ws = options_.workspace != nullptr ? *options_.workspace : local;
  ParallelFor(n, kRunSortGrain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    std::sort(buffer_.begin() + begin, buffer_.begin() + end);
  });
  // Sequential pairwise merge tree over the fixed chunk geometry.
  for (std::size_t width = kRunSortGrain; width < n; width *= 2) {
    for (std::size_t left = 0; left + width < n; left += 2 * width) {
      const std::size_t mid = left + width;
      const std::size_t right = std::min(n, mid + width);
      std::inplace_merge(buffer_.begin() + left, buffer_.begin() + mid, buffer_.begin() + right);
    }
  }
}

void ExternalSorter::SpillRun() {
  if (buffer_.empty()) return;
  SortBuffer();
  failpoint::Injection injection;
  if (failpoint::Check(failpoint::Site::kExtSortSpill, &injection)) {
    throw IoFailure(failpoint::Describe(failpoint::Site::kExtSortSpill, injection,
                                        "external sort run spill failed"));
  }
  const std::uint64_t bytes = buffer_.size() * kRecordBytes;
  const std::uint64_t offset = file_->Allocate(bytes);
  file_->Write(offset, buffer_.data(), static_cast<std::size_t>(bytes));
  runs_.push_back(Run{offset, buffer_.size()});
  buffer_.clear();
}

void ExternalSorter::Finish() {
  LDIV_CHECK(!finished_) << "double Finish";
  finished_ = true;
  if (runs_.empty()) {
    // In-RAM fast path: everything fit in one buffer; no spill I/O.
    SortBuffer();
    return;
  }
  SpillRun();
  buffer_.clear();
  buffer_.shrink_to_fit();
  buffer_reservation_.Reset();
  sources_.resize(runs_.size());
  merge_reservation_ = MemoryReservation(
      options_.budget, runs_.size() * options_.merge_buffer_records * kRecordBytes);
  const auto greater = [this](std::uint32_t a, std::uint32_t b) {
    const MergeSource& sa = sources_[a];
    const MergeSource& sb = sources_[b];
    const SortRecord& ra = sa.buffer[sa.buffer_pos];
    const SortRecord& rb = sb.buffer[sb.buffer_pos];
    if (!(ra == rb)) return rb < ra;
    return sa.run > sb.run;  // deterministic tie-break on identical records
  };
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    sources_[r].run = r;
    sources_[r].buffer.reserve(options_.merge_buffer_records);
    if (RefillSource(sources_[r])) heap_.push_back(static_cast<std::uint32_t>(r));
  }
  std::make_heap(heap_.begin(), heap_.end(), greater);
}

bool ExternalSorter::RefillSource(MergeSource& source) {
  const Run& run = runs_[source.run];
  const std::uint64_t remaining = run.records - source.next_record;
  if (remaining == 0) return false;
  const std::size_t take =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining, options_.merge_buffer_records));
  source.buffer.resize(take);
  failpoint::Injection injection;
  if (failpoint::Check(failpoint::Site::kExtSortMerge, &injection)) {
    throw IoFailure(failpoint::Describe(failpoint::Site::kExtSortMerge, injection,
                                        "external sort merge read failed"));
  }
  file_->Read(run.offset + source.next_record * kRecordBytes, source.buffer.data(),
              take * kRecordBytes);
  source.next_record += take;
  source.buffer_pos = 0;
  return true;
}

bool ExternalSorter::Next(SortRecord* out) {
  LDIV_CHECK(finished_) << "Next before Finish";
  if (runs_.empty()) {
    if (ram_pos_ >= buffer_.size()) return false;
    *out = buffer_[ram_pos_++];
    return true;
  }
  if (heap_.empty()) return false;
  const auto greater = [this](std::uint32_t a, std::uint32_t b) {
    const MergeSource& sa = sources_[a];
    const MergeSource& sb = sources_[b];
    const SortRecord& ra = sa.buffer[sa.buffer_pos];
    const SortRecord& rb = sb.buffer[sb.buffer_pos];
    if (!(ra == rb)) return rb < ra;
    return sa.run > sb.run;
  };
  std::pop_heap(heap_.begin(), heap_.end(), greater);
  const std::uint32_t top = heap_.back();
  heap_.pop_back();
  MergeSource& source = sources_[top];
  *out = source.buffer[source.buffer_pos];
  ++source.buffer_pos;
  if (source.buffer_pos == source.buffer.size() && !RefillSource(source)) {
    return true;  // run drained; source leaves the heap
  }
  heap_.push_back(top);
  std::push_heap(heap_.begin(), heap_.end(), greater);
  return true;
}

std::size_t ExternalSorter::run_count() const {
  return runs_.empty() ? 1 : runs_.size();
}

}  // namespace ldv
