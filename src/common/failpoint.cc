#include "common/failpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace ldv {
namespace failpoint {

namespace internal {
std::atomic<int> g_armed_sites{0};
}  // namespace internal

namespace {

constexpr const char* kSiteNames[kSiteCount] = {
    "spill.create",    // kSpillCreate
    "spill.write",     // kSpillWrite
    "spill.read",      // kSpillRead
    "paged.append",    // kPagedAppend
    "paged.seal",      // kPagedSeal
    "paged.map",       // kPagedMap
    "extsort.spill",   // kExtSortSpill
    "extsort.merge",   // kExtSortMerge
    "csv.read",        // kCsvRead
    "report.write",    // kReportWrite
    "release.write",   // kReleaseWrite
    "daemon.accept",   // kDaemonAccept
    "daemon.read",     // kDaemonRead
    "daemon.write",    // kDaemonWrite
};

struct SiteState {
  bool armed = false;
  Injection injection;
  std::uint64_t nth = 1;
  std::uint64_t count = 0;  // 0 = unlimited
  std::uint64_t evaluations = 0;
  std::uint64_t triggers = 0;
};

struct Registry {
  std::mutex mutex;
  SiteState sites[kSiteCount];
};

Registry& GetRegistry() {
  // Leaked on purpose: failpoints may be evaluated from detached
  // daemon handler threads during process teardown.
  static Registry* registry = new Registry();
  return *registry;
}

// Symbolic errno names accepted by ArmFromSpec. `short` is the
// short-write pseudo-errno (partial write, then ENOSPC).
bool ParseErrnoToken(std::string_view token, Injection* injection) {
  struct Named {
    std::string_view name;
    int value;
  };
  static constexpr Named kNames[] = {
      {"ENOSPC", ENOSPC}, {"EIO", EIO},     {"EPIPE", EPIPE},
      {"ECONNRESET", ECONNRESET}, {"EBADF", EBADF}, {"EAGAIN", EAGAIN},
  };
  if (token == "short") {
    injection->error_code = ENOSPC;
    injection->short_write = true;
    return true;
  }
  for (const Named& named : kNames) {
    if (token == named.name) {
      injection->error_code = named.value;
      return true;
    }
  }
  errno = 0;
  char* end = nullptr;
  std::string text(token);
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || value <= 0) return false;
  injection->error_code = static_cast<int>(value);
  return true;
}

bool ParseCounter(std::string_view token, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  std::string text(token);
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

// LDIV_FAILPOINT is parsed exactly once, as early as the dynamic
// initializers of this translation unit run, so env-armed sites fire
// from the process's very first I/O.
const bool g_env_parsed = [] {
  const char* spec = std::getenv("LDIV_FAILPOINT");
  if (spec == nullptr || spec[0] == '\0') return false;
  std::string error;
  if (!ArmFromSpec(spec, &error)) {
    std::fprintf(stderr, "ldiv: bad LDIV_FAILPOINT entry ignored: %s\n", error.c_str());
  }
  return true;
}();

}  // namespace

const char* SiteName(Site site) {
  const int index = static_cast<int>(site);
  return index >= 0 && index < kSiteCount ? kSiteNames[index] : "unknown";
}

bool SiteFromName(std::string_view name, Site* site) {
  for (int i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) {
      *site = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

namespace internal {

bool Evaluate(Site site, Injection* injection) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  SiteState& state = registry.sites[static_cast<int>(site)];
  ++state.evaluations;
  if (!state.armed) return false;
  if (state.evaluations < state.nth) return false;
  if (state.count != 0 && state.evaluations >= state.nth + state.count) return false;
  ++state.triggers;
  *injection = state.injection;
  return true;
}

}  // namespace internal

void Arm(Site site, Injection injection, std::uint64_t nth, std::uint64_t count) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  SiteState& state = registry.sites[static_cast<int>(site)];
  if (!state.armed) internal::g_armed_sites.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.injection = injection;
  state.nth = nth == 0 ? 1 : nth;
  state.count = count;
  state.evaluations = 0;
  state.triggers = 0;
}

bool ArmFromSpec(std::string_view spec, std::string* error) {
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    std::string_view entry = spec.substr(0, comma);
    spec.remove_prefix(comma == std::string_view::npos ? spec.size() : comma + 1);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "'" + std::string(entry) + "': expected site=errno[:nth[:count]]";
      }
      return false;
    }
    Site site = Site::kCount;
    if (!SiteFromName(entry.substr(0, eq), &site)) {
      if (error != nullptr) {
        *error = "unknown failpoint site '" + std::string(entry.substr(0, eq)) + "'";
      }
      return false;
    }
    std::string_view rest = entry.substr(eq + 1);
    const std::size_t colon1 = rest.find(':');
    std::string_view errno_token = rest.substr(0, colon1);
    Injection injection;
    if (!ParseErrnoToken(errno_token, &injection)) {
      if (error != nullptr) {
        *error = "'" + std::string(entry) + "': bad errno token '" +
                 std::string(errno_token) + "'";
      }
      return false;
    }
    std::uint64_t nth = 1;
    std::uint64_t count = 0;
    if (colon1 != std::string_view::npos) {
      rest.remove_prefix(colon1 + 1);
      const std::size_t colon2 = rest.find(':');
      if (!ParseCounter(rest.substr(0, colon2), &nth) ||
          (colon2 != std::string_view::npos && !ParseCounter(rest.substr(colon2 + 1), &count))) {
        if (error != nullptr) {
          *error = "'" + std::string(entry) + "': nth/count must be unsigned integers";
        }
        return false;
      }
    }
    Arm(site, injection, nth, count);
  }
  return true;
}

void Disarm(Site site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  SiteState& state = registry.sites[static_cast<int>(site)];
  if (state.armed) internal::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
  state.armed = false;
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (SiteState& state : registry.sites) {
    if (state.armed) internal::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
    state = SiteState{};
  }
}

std::vector<SiteStats> Stats() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<SiteStats> stats;
  stats.reserve(kSiteCount);
  for (int i = 0; i < kSiteCount; ++i) {
    const SiteState& state = registry.sites[i];
    stats.push_back(SiteStats{static_cast<Site>(i), kSiteNames[i], state.armed,
                              state.evaluations, state.triggers});
  }
  return stats;
}

std::uint64_t Triggers(Site site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.sites[static_cast<int>(site)].triggers;
}

std::string Describe(Site site, const Injection& injection, std::string_view action) {
  return std::string(action) + ": " + std::strerror(injection.error_code) + " [failpoint " +
         SiteName(site) + "]";
}

}  // namespace failpoint
}  // namespace ldv
