#ifndef LDIV_COMMON_SPILL_FILE_H_
#define LDIV_COMMON_SPILL_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

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
  SpillFile(int fd, std::string directory) : fd_(fd), directory_(std::move(directory)) {}

  int fd_ = -1;
  std::string directory_;
  std::uint64_t size_ = 0;
};

}  // namespace ldv

#endif  // LDIV_COMMON_SPILL_FILE_H_
