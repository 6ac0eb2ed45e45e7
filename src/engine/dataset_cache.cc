#include "engine/dataset_cache.h"

#include <sys/stat.h>

#include <utility>

#include "engine/engine.h"

namespace ldv {

namespace {

// Resident-byte estimate of a cached table: the columnar row data plus a
// small allowance for schema/dictionary storage.
std::uint64_t EstimateBytes(const Table& table) {
  return static_cast<std::uint64_t>(table.size()) * (table.qi_count() + 1) *
             sizeof(std::uint32_t) +
         4096;
}

}  // namespace

std::shared_ptr<const EngineTable> DatasetCache::Find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->table;
}

std::shared_ptr<const EngineTable> DatasetCache::Lookup(const std::string& key) {
  std::shared_ptr<const EngineTable> table = Find(key);
  std::lock_guard<std::mutex> lock(mutex_);
  ++(table != nullptr ? stats_.hits : stats_.misses);
  return table;
}

std::shared_ptr<const EngineTable> DatasetCache::GetOrBuild(
    const std::string& key, const std::function<std::shared_ptr<const EngineTable>()>& build,
    bool* hit) {
  SingleFlight::Value value = flights_.Do(
      key, [&] { return Find(key); },
      [&]() -> SingleFlight::Value {
        std::shared_ptr<const EngineTable> table = build();
        if (table != nullptr) Insert(key, table, EstimateBytes(table->table));
        return table;
      },
      hit);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(*hit ? stats_.hits : stats_.misses);
  }
  return std::static_pointer_cast<const EngineTable>(value);
}

void DatasetCache::Insert(const std::string& key, std::shared_ptr<const EngineTable> table,
                          std::uint64_t bytes) {
  if (bytes > capacity_) return;  // also covers the capacity == 0 (disabled) case
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.resident_bytes -= it->second->bytes;
    it->second->table = std::move(table);
    it->second->bytes = bytes;
    stats_.resident_bytes += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(table), bytes});
    index_[key] = lru_.begin();
    stats_.resident_bytes += bytes;
    ++stats_.insertions;
  }
  EvictPastCapacityLocked();
  stats_.entries = lru_.size();
}

void DatasetCache::EvictPastCapacityLocked() {
  while (stats_.resident_bytes > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

void DatasetCache::RecordPagedBypass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.bypassed_paged;
}

void DatasetCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.resident_bytes = 0;
  stats_.entries = 0;
}

std::string DatasetCache::CsvKey(const std::string& path, CsvFormat format,
                                 const std::string& schema_spec) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return "";
  return "csv|" + std::string(CsvFormatName(format)) + "|" + schema_spec + "|" + path + "|" +
         std::to_string(static_cast<long long>(st.st_mtime)) + "|" +
         std::to_string(static_cast<long long>(st.st_size));
}

std::string DatasetCache::SyntheticKey(const DatasetSpec& resolved_cell) {
  return "syn|" + DatasetLabel(resolved_cell);
}

}  // namespace ldv
