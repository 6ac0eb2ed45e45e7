#include "common/paged_column.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "common/failpoint.h"

namespace ldv {

PagedColumn::PagedColumn(std::unique_ptr<SpillFile> file, std::size_t page_bytes,
                         std::shared_ptr<MemoryBudget> budget)
    : file_(std::move(file)), page_values_(page_bytes / sizeof(std::uint32_t)) {
  LDIV_CHECK(file_ != nullptr);
  LDIV_CHECK_GT(page_bytes, 0u);
  LDIV_CHECK_EQ(page_bytes % sizeof(std::uint32_t), 0u);
  staging_.reserve(page_values_);
  staging_reservation_ = MemoryReservation(std::move(budget), page_bytes);
}

PagedColumn::~PagedColumn() {
  if (map_addr_ != nullptr) ::munmap(map_addr_, map_bytes_);
}

void PagedColumn::Append(const std::uint32_t* values, std::size_t count) {
  LDIV_CHECK(!sealed_) << "append to a sealed paged column";
  if (count > 0) max_ = std::max(max_, *std::max_element(values, values + count));
  while (count > 0) {
    const std::size_t take = std::min(count, page_values_ - staging_.size());
    staging_.insert(staging_.end(), values, values + take);
    values += take;
    count -= take;
    size_ += take;
    if (staging_.size() == page_values_) {
      failpoint::Injection injection;
      if (failpoint::Check(failpoint::Site::kPagedAppend, &injection)) {
        throw IoFailure(failpoint::Describe(failpoint::Site::kPagedAppend, injection,
                                            "paged column append failed"));
      }
      const std::size_t page_bytes = page_values_ * sizeof(std::uint32_t);
      file_->Write(file_->Allocate(page_bytes), staging_.data(), page_bytes);
      staging_.clear();
    }
  }
}

bool PagedColumn::Seal(std::string* error) {
  LDIV_CHECK(!sealed_) << "double seal of a paged column";
  if (!staging_.empty()) {
    failpoint::Injection injection;
    if (failpoint::Check(failpoint::Site::kPagedSeal, &injection)) {
      throw IoFailure(failpoint::Describe(failpoint::Site::kPagedSeal, injection,
                                          "paged column seal failed"));
    }
    const std::size_t tail_bytes = staging_.size() * sizeof(std::uint32_t);
    file_->Write(file_->Allocate(tail_bytes), staging_.data(), tail_bytes);
  }
  staging_ = {};
  staging_reservation_.Reset();
  sealed_ = true;
  LDIV_CHECK_EQ(file_->size(), size_ * sizeof(std::uint32_t));
  if (size_ == 0) return true;
  failpoint::Injection injection;
  if (failpoint::Check(failpoint::Site::kPagedMap, &injection)) {
    if (error != nullptr) {
      *error = failpoint::Describe(failpoint::Site::kPagedMap, injection,
                                   "cannot map spill file");
    }
    return false;
  }
  map_bytes_ = static_cast<std::size_t>(file_->size());
  void* addr = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_SHARED, file_->fd(), 0);
  if (addr == MAP_FAILED) {
    map_bytes_ = 0;
    if (error != nullptr) {
      *error = std::string("cannot map spill file: ") + std::strerror(errno);
    }
    return false;
  }
  map_addr_ = addr;
  return true;
}

std::span<const std::uint32_t> PagedColumn::mapping() const {
  LDIV_CHECK(sealed_) << "mapping of an unsealed column";
  if (size_ == 0) return {};
  LDIV_CHECK(map_addr_ != nullptr) << "mapping of an unmapped column";
  return {static_cast<const std::uint32_t*>(map_addr_), static_cast<std::size_t>(size_)};
}

std::unique_ptr<PagedTableBuilder> PagedTableBuilder::Create(std::size_t qi_count,
                                                             const Options& options,
                                                             std::string* error) {
  std::unique_ptr<PagedTableBuilder> builder(new PagedTableBuilder());
  for (std::size_t a = 0; a <= qi_count; ++a) {
    std::unique_ptr<SpillFile> file = SpillFile::Create(error);
    if (file == nullptr) return nullptr;
    auto column =
        std::make_unique<PagedColumn>(std::move(file), options.page_bytes, options.budget);
    if (a < qi_count) {
      builder->qi_columns_.push_back(std::move(column));
    } else {
      builder->sa_column_ = std::move(column);
    }
  }
  return builder;
}

void PagedTableBuilder::AppendRow(std::span<const Value> qi_values, SaValue sa) {
  LDIV_CHECK_EQ(qi_values.size(), qi_columns_.size());
  for (std::size_t a = 0; a < qi_values.size(); ++a) qi_columns_[a]->Append(qi_values[a]);
  sa_column_->Append(sa);
  ++rows_;
}

void PagedTableBuilder::AppendQiChunk(AttrId attr, const Value* values, std::size_t count) {
  LDIV_CHECK_LT(attr, qi_columns_.size());
  qi_columns_[attr]->Append(values, count);
}

void PagedTableBuilder::AppendSaChunk(const SaValue* values, std::size_t count) {
  sa_column_->Append(values, count);
  rows_ += count;
}

std::unique_ptr<PagedTable> PagedTableBuilder::Finish(Schema schema, std::string* error) {
  const auto fail = [&](const std::string& reason) -> std::unique_ptr<PagedTable> {
    if (error != nullptr) *error = reason;
    return nullptr;
  };
  if (schema.qi_count() != qi_columns_.size()) {
    return fail("schema QI count does not match builder");
  }
  if (sa_column_->size() != rows_) return fail("SA column length mismatch");
  for (std::size_t a = 0; a < qi_columns_.size(); ++a) {
    if (qi_columns_[a]->size() != rows_) {
      return fail("ragged paged column '" + schema.qi(static_cast<AttrId>(a)).name + "'");
    }
  }
  // Every column holds its running max, so validation reads no page back.
  std::vector<std::unique_ptr<PagedColumn>> columns = std::move(qi_columns_);
  columns.push_back(std::move(sa_column_));
  for (std::size_t a = 0; a < columns.size(); ++a) {
    const Attribute& attr =
        a < schema.qi_count() ? schema.qi(static_cast<AttrId>(a)) : schema.sensitive();
    if (rows_ > 0 && columns[a]->max() >= attr.domain_size) {
      return fail("column '" + attr.name + "': value " + std::to_string(columns[a]->max()) +
                  " outside domain of size " + std::to_string(attr.domain_size));
    }
  }
  for (std::unique_ptr<PagedColumn>& column : columns) {
    if (!column->Seal(error)) return nullptr;
  }
  std::vector<std::span<const Value>> qi_spans;
  qi_spans.reserve(schema.qi_count());
  for (std::size_t a = 0; a < schema.qi_count(); ++a) qi_spans.push_back(columns[a]->mapping());
  const std::span<const SaValue> sa_span = columns.back()->mapping();
  Table resident = Table::FromBorrowedColumns(std::move(schema), std::move(qi_spans), sa_span);
  return std::unique_ptr<PagedTable>(new PagedTable(std::move(columns), std::move(resident)));
}

}  // namespace ldv
