#ifndef LDIV_ENGINE_SINGLE_FLIGHT_H_
#define LDIV_ENGINE_SINGLE_FLIGHT_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ldv {

/// Coalesces concurrent fills of one cache key: while a caller builds the
/// value for a key, every other caller that misses on that key waits for
/// the build and shares its result instead of building it again. The
/// DatasetCache and the ArtifactCache both fill through one of these, so
/// concurrent engine runs that start on the same input load, group and
/// Hilbert-order it once.
class SingleFlight {
 public:
  using Value = std::shared_ptr<const void>;

  /// The value for `key`: what `lookup` finds in the cache; else the
  /// result of the build another caller has in flight for `key`, waited
  /// for; else `build()`, run by this caller, which inserts what it built
  /// into the cache before returning it. `*shared` is false only when this
  /// caller ran build(). A build that fails (returns null or throws) is
  /// handed to no one: its waiters retry, so each reports its own error.
  Value Do(const std::string& key, const std::function<Value()>& lookup,
           const std::function<Value()>& build, bool* shared);

 private:
  struct Flight {
    bool done = false;
    Value value;
  };

  void Finish(const std::string& key, const std::shared_ptr<Flight>& flight, Value value);

  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
};

}  // namespace ldv

#endif  // LDIV_ENGINE_SINGLE_FLIGHT_H_
