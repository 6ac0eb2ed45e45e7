#ifndef LDIV_COMMON_PAGE_CACHE_H_
#define LDIV_COMMON_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/memory_budget.h"

namespace ldv {

/// Default page size for spilled columns: 1 MiB = 256K u32 values.
inline constexpr std::size_t kDefaultPageBytes = 1u << 20;

/// Resolves the spill directory ONCE per process: the first of
/// LDIV_SPILL_DIR, TMPDIR, /tmp that exists and is writable (probed with
/// an mkstemp that is removed immediately). Every SpillFile shares the
/// result, so a run spilling hundreds of columns stats the environment
/// exactly once instead of once per column. On failure, returns false
/// with an error naming the directory and the environment variable it
/// came from; the cached outcome (success or failure) is sticky for the
/// process lifetime.
bool ResolveSpillDirectory(std::string* directory, std::string* error);

/// One anonymous temp file holding spilled column bytes. The file is
/// created in the resolved spill directory (see ResolveSpillDirectory:
/// LDIV_SPILL_DIR, else TMPDIR, else /tmp) and unlinked
/// immediately, so spill space is reclaimed by the OS even on a crash;
/// the fd (and with it the storage) lives exactly as long as this
/// object. Space is handed out by a bump allocator; reads and writes
/// are positioned (pread/pwrite), so one file serves concurrent readers.
///
/// Creation returns an error (no temp space is a user-environment
/// problem surfaced at ingestion start); I/O failures after that --
/// disk full mid-spill, revoked fd -- throw IoFailure, which the engine
/// boundary converts to a typed PipelineError{kIo} (and the daemon to an
/// `error` reply). The unlink-at-create design is what makes the unwind
/// safe: a half-written spill file needs no cleanup beyond its dtor.
class SpillFile {
 public:
  /// Creates an unlinked temp file; null + `error` on failure.
  static std::unique_ptr<SpillFile> Create(std::string* error);

  /// Number of SpillFile objects currently alive in the process -- the
  /// leak probe fault-injection tests assert returns to its baseline
  /// after every injected failure.
  static std::uint64_t LiveCount();

  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Process-unique id; the page cache keys frames by (id, page).
  std::uint32_t id() const { return id_; }

  /// The directory the file was created in (the file itself is unlinked).
  const std::string& directory() const { return directory_; }

  /// Bytes allocated so far.
  std::uint64_t size() const { return size_; }

  /// Reserves `bytes` at the end of the file; returns their offset.
  std::uint64_t Allocate(std::uint64_t bytes);

  /// Positioned write/read of exactly `bytes`; both throw IoFailure on a
  /// syscall failure (ENOSPC, EIO, short read) or an armed failpoint.
  void Write(std::uint64_t offset, const void* data, std::size_t bytes) const;
  void Read(std::uint64_t offset, void* data, std::size_t bytes) const;

  int fd() const { return fd_; }

 private:
  SpillFile(int fd, std::uint32_t id, std::string directory)
      : fd_(fd), id_(id), directory_(std::move(directory)) {}

  int fd_ = -1;
  std::uint32_t id_ = 0;
  std::string directory_;
  std::uint64_t size_ = 0;
};

struct PageCacheOptions {
  std::size_t page_bytes = kDefaultPageBytes;
  std::size_t frames = 64;  // bounded resident frames
  // Frames are charged here (may be null). Shared so the cache can outlive
  // the run whose budget it was created under (e.g. a paged table held by
  // a caller across later runs).
  std::shared_ptr<MemoryBudget> budget;
};

/// Bounded cache of fixed-size spill-file pages with pin/unpin and CLOCK
/// (second-chance) eviction. All frames are allocated up front as one
/// block of frames * page_bytes bytes and charged to the budget for the
/// cache's lifetime, so the resident set is a hard bound, not a high-water
/// guess. Pages are read-only once spilled (writers stage pages privately
/// and write through), so eviction never writes back.
///
/// Not thread-safe: each reader owns its cache (cursors over a sealed,
/// memory-mapped column bypass the cache entirely, which is how parallel
/// kernels run).
class PageCache {
 public:
  explicit PageCache(PageCacheOptions options);
  ~PageCache();
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t refaults = 0;  // misses on pages that were evicted earlier
  };

  std::size_t page_bytes() const { return options_.page_bytes; }
  std::size_t frames() const { return options_.frames; }
  const Stats& stats() const { return stats_; }

  /// Number of currently pinned frames (for tests).
  std::size_t pinned_frames() const;

  /// Pins page `page` of `file` (bytes [page * page_bytes, ... + valid_bytes))
  /// into a frame, reading from the spill file on a miss, and returns the
  /// frame's data. The frame cannot be evicted until the matching Unpin.
  /// Pins nest (a page may be pinned more than once). A failed miss read
  /// throws IoFailure with the frame left invalid (the cache stays
  /// usable). It is a fatal error to pin when every frame is pinned
  /// (callers hold O(1) pins).
  const std::byte* Pin(const SpillFile& file, std::uint64_t page, std::size_t valid_bytes);

  /// Releases one pin of `page`; sets the frame's reference bit so CLOCK
  /// gives recently used pages a second chance.
  void Unpin(const SpillFile& file, std::uint64_t page);

 private:
  struct Frame {
    std::uint64_t key = 0;
    std::uint32_t pins = 0;
    bool referenced = false;
    bool valid = false;
  };

  static std::uint64_t Key(const SpillFile& file, std::uint64_t page);
  std::size_t EvictFrame();  // returns a free frame index, evicting if needed

  PageCacheOptions options_;
  MemoryReservation reservation_;
  std::vector<std::byte> storage_;               // frames * page_bytes
  std::vector<Frame> frames_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // key -> frame
  std::unordered_set<std::uint64_t> evicted_;    // keys seen then evicted
  std::size_t clock_hand_ = 0;
  Stats stats_;
};

}  // namespace ldv

#endif  // LDIV_COMMON_PAGE_CACHE_H_
