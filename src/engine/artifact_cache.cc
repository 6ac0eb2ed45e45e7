#include "engine/artifact_cache.h"

#include <utility>

#include "common/schema.h"

namespace ldv {

std::shared_ptr<const void> ArtifactCache::FindRaw(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->artifact;
}

std::shared_ptr<const void> ArtifactCache::LookupRaw(const std::string& key) {
  std::shared_ptr<const void> artifact = FindRaw(key);
  std::lock_guard<std::mutex> lock(mutex_);
  ++(artifact != nullptr ? stats_.hits : stats_.misses);
  return artifact;
}

std::shared_ptr<const void> ArtifactCache::GetOrBuildRaw(const std::string& key,
                                                        const std::function<Built()>& build,
                                                        std::uint64_t* insert_room, bool* hit) {
  std::shared_ptr<const void> artifact = flights_.Do(
      key, [&] { return FindRaw(key); },
      [&] {
        Built built = build();
        if (built.bytes <= *insert_room && InsertRaw(key, built.artifact, built.bytes)) {
          *insert_room -= built.bytes;
        }
        return built.artifact;
      },
      hit);
  std::lock_guard<std::mutex> lock(mutex_);
  ++(*hit ? stats_.hits : stats_.misses);
  return artifact;
}

bool ArtifactCache::InsertRaw(const std::string& key, std::shared_ptr<const void> artifact,
                              std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > capacity_) return false;  // also covers the capacity == 0 (disabled) case
  auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.resident_bytes -= it->second->bytes;
    it->second->artifact = std::move(artifact);
    it->second->bytes = bytes;
    stats_.resident_bytes += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(artifact), bytes});
    index_[key] = lru_.begin();
    stats_.resident_bytes += bytes;
    ++stats_.insertions;
  }
  EvictPastCapacityLocked();
  stats_.entries = lru_.size();
  return true;
}

void ArtifactCache::EvictPastCapacityLocked() {
  while (stats_.resident_bytes > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const GroupedTable> ArtifactCache::LookupGrouped(const std::string& key) {
  return std::static_pointer_cast<const GroupedTable>(LookupRaw(key));
}

std::shared_ptr<const std::vector<RowId>> ArtifactCache::LookupOrder(const std::string& key) {
  return std::static_pointer_cast<const std::vector<RowId>>(LookupRaw(key));
}

std::shared_ptr<const GroupedTable> ArtifactCache::GetOrBuildGrouped(
    const std::string& key, const std::function<std::shared_ptr<const GroupedTable>()>& build,
    std::uint64_t* insert_room, bool* hit) {
  return std::static_pointer_cast<const GroupedTable>(GetOrBuildRaw(
      key,
      [&]() -> Built {
        std::shared_ptr<const GroupedTable> grouped = build();
        return {grouped, grouped->ApproxBytes()};
      },
      insert_room, hit));
}

std::shared_ptr<const std::vector<RowId>> ArtifactCache::GetOrBuildOrder(
    const std::string& key,
    const std::function<std::shared_ptr<const std::vector<RowId>>()>& build,
    std::uint64_t* insert_room, bool* hit) {
  return std::static_pointer_cast<const std::vector<RowId>>(GetOrBuildRaw(
      key,
      [&]() -> Built {
        std::shared_ptr<const std::vector<RowId>> order = build();
        return {order, order->size() * sizeof(RowId)};
      },
      insert_room, hit));
}

void ArtifactCache::InsertGrouped(const std::string& key,
                                  std::shared_ptr<const GroupedTable> grouped,
                                  std::uint64_t bytes) {
  InsertRaw(key, std::move(grouped), bytes);
}

void ArtifactCache::InsertOrder(const std::string& key,
                                std::shared_ptr<const std::vector<RowId>> order,
                                std::uint64_t bytes) {
  InsertRaw(key, std::move(order), bytes);
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

void ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.resident_bytes = 0;
  stats_.entries = 0;
}

std::string ArtifactCache::SchemaFingerprint(const Table& table) {
  std::string fp = "d=" + std::to_string(table.qi_count()) + ";dom=";
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    if (a != 0) fp += ',';
    fp += std::to_string(table.schema().qi(a).domain_size);
  }
  fp += ";m=" + std::to_string(table.schema().sa_domain_size());
  return fp;
}

std::string ArtifactCache::GroupedKey(const std::string& dataset_key, const Table& table) {
  return "grouped|" + dataset_key + "|" + SchemaFingerprint(table);
}

std::string ArtifactCache::OrderKey(const std::string& dataset_key, const Table& table) {
  return "hilbert|" + dataset_key + "|" + SchemaFingerprint(table);
}

}  // namespace ldv
