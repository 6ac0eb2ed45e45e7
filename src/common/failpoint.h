#ifndef LDIV_COMMON_FAILPOINT_H_
#define LDIV_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ldv {

/// Thrown by the deep I/O layers (spill files, paged columns, external
/// sort runs) on a syscall failure that cannot be handled in place, and
/// by armed failpoints simulating one. Caught at exactly two boundaries:
/// Engine::Run/Execute converts it to PipelineError{kIo} (CLI exit 3),
/// and the daemon's per-job isolation boundary converts it to an `error`
/// reply while the daemon keeps serving. Everything between the throw
/// and the catch cleans up by RAII: spill files are unlinked at creation
/// (their storage dies with the fd) and budget reservations release on
/// unwind, so an ENOSPC mid-spill leaks nothing.
class IoFailure : public std::runtime_error {
 public:
  explicit IoFailure(const std::string& what) : std::runtime_error(what) {}
};

namespace failpoint {

/// Every injection site, declared centrally so the registry can
/// enumerate sites that have not executed yet (the matrix test arms all
/// of them). Names follow "layer.operation".
enum class Site : int {
  kSpillCreate = 0,  ///< SpillFile::Create (mkstemp)
  kSpillWrite,       ///< SpillFile::Write (pwrite loop)
  kSpillRead,        ///< SpillFile::Read (pread loop)
  kPagedAppend,      ///< PagedColumn::Append full-page flush
  kPagedSeal,        ///< PagedColumn::Seal tail flush
  kPagedMap,         ///< PagedColumn::Seal mmap
  kExtSortSpill,     ///< ExternalSorter sorted-run spill
  kExtSortMerge,     ///< ExternalSorter merge refill read
  kCsvRead,          ///< streaming CSV ingestion row loop
  kReportWrite,      ///< report/metrics/sidecar/anatomy/emit-input writers
  kReleaseWrite,     ///< generalized release CSV writer
  kDaemonAccept,     ///< daemon accept loop
  kDaemonRead,       ///< frame read (daemon or client side)
  kDaemonWrite,      ///< frame write (daemon or client side)
  kCount,
};

inline constexpr int kSiteCount = static_cast<int>(Site::kCount);

/// The stable name of `site` ("spill.write", ...).
const char* SiteName(Site site);

/// Reverse lookup; false when `name` matches no site.
bool SiteFromName(std::string_view name, Site* site);

/// What an armed site injects when it fires.
struct Injection {
  int error_code = 0;        ///< the errno the site simulates
  bool short_write = false;  ///< write sites: land a partial write, then fail
};

namespace internal {

/// Fast gate: the number of currently armed sites. The disabled-path
/// cost of a failpoint is exactly one relaxed load of this counter.
extern std::atomic<int> g_armed_sites;

/// Slow path, entered only while something is armed.
bool Evaluate(Site site, Injection* injection);

}  // namespace internal

/// True when `site` fires this evaluation, filling `*injection`.
/// Compiles to a single relaxed atomic load when nothing is armed.
inline bool Check(Site site, Injection* injection) {
  if (internal::g_armed_sites.load(std::memory_order_relaxed) == 0) return false;
  return internal::Evaluate(site, injection);
}

/// Arms `site`: evaluations nth, nth+1, ..., nth+count-1 (1-based,
/// counted from this Arm) fire with `injection`; count 0 = every
/// evaluation from `nth` on. Re-arming resets the site's counters.
void Arm(Site site, Injection injection, std::uint64_t nth = 1, std::uint64_t count = 0);

/// Arms sites from a spec string of comma-separated entries
///   site=errno[:nth[:count]]
/// e.g. "spill.write=ENOSPC:3:1,daemon.read=EIO". errno is symbolic
/// (ENOSPC, EIO, EPIPE, ECONNRESET, EBADF, EAGAIN) or numeric; the
/// pseudo-errno `short` injects a short write backed by ENOSPC. The
/// LDIV_FAILPOINT environment variable is parsed through this once per
/// process. Returns false with a reason on a malformed entry (entries
/// before it stay armed).
bool ArmFromSpec(std::string_view spec, std::string* error);

void Disarm(Site site);

/// Disarms every site and resets all counters.
void DisarmAll();

/// Per-site counters. Evaluations are counted only while any site is
/// armed (the disabled fast path must stay a single load).
struct SiteStats {
  Site site = Site::kCount;
  const char* name = "";
  bool armed = false;
  std::uint64_t evaluations = 0;
  std::uint64_t triggers = 0;
};
std::vector<SiteStats> Stats();

/// Triggers of one site since it was last armed (or DisarmAll).
std::uint64_t Triggers(Site site);

/// One-line message for a fired site:
/// "<action>: <strerror> [failpoint <site>]".
std::string Describe(Site site, const Injection& injection, std::string_view action);

}  // namespace failpoint
}  // namespace ldv

#endif  // LDIV_COMMON_FAILPOINT_H_
