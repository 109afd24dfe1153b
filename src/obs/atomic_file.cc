#include "obs/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/error.h"
#include "obs/faults.h"
#include "obs/log.h"

namespace sddd::obs {

namespace {

/// Per-process ordinal of atomic writes; the k the io.* fault seams key on.
/// Artifact writes are rare and serial, so the ordinal is stable for a
/// given program flow.
std::atomic<std::uint64_t> g_write_ordinal{0};

bool atomic_write_impl(const std::string& path, std::string_view content,
                       std::string* error) {
  const std::uint64_t ordinal =
      g_write_ordinal.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd = -1;
  if (fault_at("io.open", ordinal)) {
    errno = EACCES;
  } else {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  if (fd < 0) {
    *error = "cannot open " + tmp + ": " + std::strerror(errno);
    return false;
  }
  // The short-write seam truncates the payload, which must surface as a
  // failed (and cleaned-up) write, never as a silently shorter artifact.
  const std::string_view payload =
      fault_at("io.short_write", ordinal) ? content.substr(0, content.size() / 2)
                                          : content;
  bool ok = write_all(fd, payload) && payload.size() == content.size();
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    *error = "atomic write of " + path + " failed: " + std::strerror(errno);
    ::unlink(tmp.c_str());
  }
  return ok;
}

}  // namespace

bool write_all(int fd, std::string_view content) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool atomic_write_file(const std::string& path, std::string_view content) {
  std::string error;
  if (atomic_write_impl(path, content, &error)) return true;
  SDDD_LOG_WARN("%s", error.c_str());
  return false;
}

void atomic_write_file_or_throw(const std::string& path,
                                std::string_view content) {
  std::string error;
  if (!atomic_write_impl(path, content, &error)) throw IoError(error);
}

}  // namespace sddd::obs
