#include "engine/content_cache.h"

#include <sys/stat.h>

#include <utility>

#include "common/schema.h"
#include "engine/engine.h"

namespace ldv {

std::uint64_t ResidentBytes(const EngineTable& table) {
  // The columnar row data plus an allowance for schema and dictionaries.
  return static_cast<std::uint64_t>(table.table.size()) * (table.table.qi_count() + 1) *
             sizeof(std::uint32_t) +
         4096;
}

std::uint64_t ResidentBytes(const GroupedTable& grouped) { return grouped.ApproxBytes(); }

std::uint64_t ResidentBytes(const std::vector<RowId>& order) {
  return order.size() * sizeof(RowId);
}

std::uint64_t ResidentBytes(const std::vector<KlPoint>& points) {
  return points.size() * sizeof(KlPoint);
}

std::shared_ptr<const void> ContentCache::GetOrBuildErased(Kind kind, const std::string& key,
                                                           const std::function<Entry()>& build,
                                                           bool* hit) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto& index = index_[static_cast<int>(kind)];
  auto& flights = flights_[static_cast<int>(kind)];
  Counts& counts = kind == Kind::kTable       ? stats_.tables
                   : kind == Kind::kKlPoints ? stats_.kl_points
                                             : stats_.artifacts;
  *hit = true;
  for (;;) {
    if (auto it = index.find(key); it != index.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counts.hits;
      return it->second->value;
    }
    auto in_flight = flights.find(key);
    if (in_flight == flights.end()) break;
    const std::shared_ptr<Flight> flight = in_flight->second;
    landed_.wait(lock, [&] { return flight->done; });
    if (flight->value != nullptr) {
      ++counts.hits;
      return flight->value;
    }
    // That build failed; look again, possibly building it here.
  }
  const auto flight = std::make_shared<Flight>();
  flights.emplace(key, flight);
  ++counts.misses;
  *hit = false;
  lock.unlock();

  Entry built;
  try {
    built = build();
  } catch (...) {
    Land(kind, key, flight.get(), Entry{});
    throw;
  }
  std::shared_ptr<const void> value = built.value;
  Land(kind, key, flight.get(), std::move(built));
  return value;
}

void ContentCache::Land(Kind kind, const std::string& key, Flight* flight, Entry built) {
  std::lock_guard<std::mutex> lock(mutex_);
  flight->done = true;
  flight->value = built.value;
  flights_[static_cast<int>(kind)].erase(key);
  landed_.notify_all();  // before the insertion, which may throw
  if (built.value == nullptr || built.bytes > capacity_) return;
  // Only this flight could have inserted `key`, so it is absent.
  built.kind = kind;
  built.key = key;
  stats_.resident_bytes += built.bytes;
  lru_.push_front(std::move(built));
  index_[static_cast<int>(kind)][key] = lru_.begin();
  ++stats_.insertions;
  while (stats_.resident_bytes > capacity_) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.bytes;
    index_[static_cast<int>(victim.kind)].erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void ContentCache::RecordPagedBypass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.bypassed_paged;
}

ContentCache::Stats ContentCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

std::string ContentCache::CsvKey(const std::string& path, CsvFormat format,
                                 const std::string& schema_spec) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return "";
  std::string key = "csv|" + std::string(CsvFormatName(format)) + "|" + schema_spec + "|" + path;
  for (const long long field : {static_cast<long long>(st.st_dev), static_cast<long long>(st.st_ino),
                                static_cast<long long>(st.st_size),
                                static_cast<long long>(st.st_mtim.tv_sec),
                                static_cast<long long>(st.st_mtim.tv_nsec)}) {
    key += '|';
    key += std::to_string(field);
  }
  return key;
}

std::string ContentCache::SyntheticKey(const DatasetSpec& resolved_cell) {
  return "syn|" + DatasetLabel(resolved_cell);
}

std::string ContentCache::ArtifactKey(const std::string& table_key, const Table& table) {
  std::string key = table_key + "|d=" + std::to_string(table.qi_count()) + ";dom=";
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    if (a != 0) key += ',';
    key += std::to_string(table.schema().qi(a).domain_size);
  }
  return key + ";m=" + std::to_string(table.schema().sa_domain_size());
}

}  // namespace ldv
