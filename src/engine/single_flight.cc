#include "engine/single_flight.h"

#include <utility>

namespace ldv {

SingleFlight::Value SingleFlight::Do(const std::string& key, const std::function<Value()>& lookup,
                                     const std::function<Value()>& build, bool* shared) {
  *shared = true;
  if (Value hit = lookup()) return hit;

  std::unique_lock<std::mutex> lock(mutex_);
  for (auto it = flights_.find(key); it != flights_.end(); it = flights_.find(key)) {
    const std::shared_ptr<Flight> flight = it->second;
    done_cv_.wait(lock, [&] { return flight->done; });
    if (flight->value != nullptr) return flight->value;
    // That build failed; retry, possibly building it here.
  }
  const auto flight = std::make_shared<Flight>();
  flights_.emplace(key, flight);
  lock.unlock();

  // A build that finished between the lookup above and the registration
  // has already inserted its value, so look again before building.
  Value value;
  try {
    value = lookup();
    if (value == nullptr) {
      *shared = false;
      value = build();
    }
  } catch (...) {
    Finish(key, flight, nullptr);
    throw;
  }
  Finish(key, flight, value);
  return value;
}

void SingleFlight::Finish(const std::string& key, const std::shared_ptr<Flight>& flight,
                          Value value) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    flight->done = true;
    flight->value = std::move(value);
    flights_.erase(key);
  }
  done_cv_.notify_all();
}

}  // namespace ldv
