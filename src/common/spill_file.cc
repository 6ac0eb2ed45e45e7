#include "common/spill_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/failpoint.h"

namespace ldv {

namespace {

// Leak probe: every live SpillFile counts itself here, so tests can
// assert that an unwound failure released all spill storage.
std::atomic<std::uint64_t> g_live_spill_files{0};

struct SpillDirectoryResolution {
  bool ok = false;
  std::string directory;
  std::string error;
};

SpillDirectoryResolution ResolveSpillDirectoryOnce() {
  SpillDirectoryResolution resolution;
  std::string source = "the built-in default";
  resolution.directory = "/tmp";
  for (const char* var : {"LDIV_SPILL_DIR", "TMPDIR"}) {
    const char* dir = std::getenv(var);
    if (dir != nullptr && dir[0] != '\0') {
      resolution.directory = dir;
      source = std::string("$") + var;
      break;
    }
  }
  // Probe writability up front so a bad environment fails with one clear
  // message at resolution time instead of a surprise deep in ingestion.
  std::string pattern = resolution.directory + "/ldiv-spill-probe-XXXXXX";
  const int fd = ::mkstemp(pattern.data());
  if (fd < 0) {
    resolution.error = "spill directory '" + resolution.directory + "' (from " + source +
                       ") is not writable: " + std::strerror(errno);
    return resolution;
  }
  ::close(fd);
  ::unlink(pattern.c_str());
  resolution.ok = true;
  return resolution;
}

}  // namespace

bool ResolveSpillDirectory(std::string* directory, std::string* error) {
  // Magic-static: the environment is consulted and probed exactly once
  // per process, no matter how many columns spill.
  static const SpillDirectoryResolution resolution = ResolveSpillDirectoryOnce();
  if (!resolution.ok) {
    if (error != nullptr) *error = resolution.error;
    return false;
  }
  if (directory != nullptr) *directory = resolution.directory;
  return true;
}

std::unique_ptr<SpillFile> SpillFile::Create(std::string* error) {
  std::string directory;
  if (!ResolveSpillDirectory(&directory, error)) return nullptr;
  failpoint::Injection injection;
  if (failpoint::Check(failpoint::Site::kSpillCreate, &injection)) {
    if (error != nullptr) {
      *error = failpoint::Describe(failpoint::Site::kSpillCreate, injection,
                                   "cannot create spill file in '" + directory + "'");
    }
    return nullptr;
  }
  std::string pattern = directory + "/ldiv-spill-XXXXXX";
  const int fd = ::mkstemp(pattern.data());
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot create spill file in '" + directory + "': " + std::strerror(errno);
    }
    return nullptr;
  }
  // Unlink immediately: the fd keeps the storage alive, and the OS
  // reclaims it when the fd closes -- even if the process crashes.
  ::unlink(pattern.c_str());
  g_live_spill_files.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<SpillFile>(new SpillFile(fd, directory));
}

std::uint64_t SpillFile::LiveCount() {
  return g_live_spill_files.load(std::memory_order_relaxed);
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
  g_live_spill_files.fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t SpillFile::Allocate(std::uint64_t bytes) {
  const std::uint64_t offset = size_;
  size_ += bytes;
  return offset;
}

void SpillFile::Write(std::uint64_t offset, const void* data, std::size_t bytes) const {
  const char* src = static_cast<const char*>(data);
  failpoint::Injection injection;
  if (failpoint::Check(failpoint::Site::kSpillWrite, &injection)) {
    if (injection.short_write && bytes > 1) {
      // Land half the bytes for real before failing, so the unwind path
      // is exercised against a genuinely torn page.
      (void)::pwrite(fd_, src, bytes / 2, static_cast<off_t>(offset));
    }
    throw IoFailure(
        failpoint::Describe(failpoint::Site::kSpillWrite, injection, "spill write failed"));
  }
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd_, src, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw IoFailure(std::string("spill write failed: ") +
                      std::strerror(n < 0 ? errno : EIO));
    }
    src += n;
    offset += static_cast<std::uint64_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

void SpillFile::Read(std::uint64_t offset, void* data, std::size_t bytes) const {
  char* dst = static_cast<char*>(data);
  failpoint::Injection injection;
  if (failpoint::Check(failpoint::Site::kSpillRead, &injection)) {
    throw IoFailure(
        failpoint::Describe(failpoint::Site::kSpillRead, injection, "spill read failed"));
  }
  while (bytes > 0) {
    const ssize_t n = ::pread(fd_, dst, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // n == 0 is a short file -- truncated behind our back; surface it
      // as an I/O failure, not an abort.
      throw IoFailure(std::string("spill read failed: ") + std::strerror(n < 0 ? errno : EIO));
    }
    dst += n;
    offset += static_cast<std::uint64_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

}  // namespace ldv
