// atomic_file.h - Crash-safe artifact writes (temp file + fsync + rename).
//
// Every tracked artifact (BENCH_*.json, metrics/trace captures, the
// checkpoint sidecar files) goes through atomic_write_file so a run killed
// mid-write never leaves a truncated or interleaved file behind: readers
// see either the previous complete content or the new complete content,
// never a prefix.  The sequence is the POSIX idiom
//
//   open(path.tmp.<pid>) -> write all -> fsync -> close -> rename(tmp, path)
//
// rename(2) is atomic within a filesystem; the temp file lives next to the
// target so the rename never crosses devices.  Fault seams `io.open` and
// `io.short_write` (see obs/faults.h) make both failure paths testable.
#pragma once

#include <string>
#include <string_view>

namespace sddd::obs {

/// Writes all of `content` to `fd`, retrying short and EINTR-interrupted
/// write(2)s.  Returns false with errno set on the first real failure.
bool write_all(int fd, std::string_view content);

/// Atomically replaces `path` with `content`.  Returns false (and cleans
/// up the temp file) on any failure - open, short write, fsync, rename.
/// Never leaves a partial `path`.
bool atomic_write_file(const std::string& path, std::string_view content);

/// atomic_write_file that throws sddd::IoError (with errno text) instead
/// of returning false, for call sites where a lost artifact is fatal.
void atomic_write_file_or_throw(const std::string& path,
                                std::string_view content);

}  // namespace sddd::obs
