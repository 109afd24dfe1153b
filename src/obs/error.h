// error.h - The sddd::Error taxonomy: typed exceptions with stable codes.
//
// Every module seam that can fail at runtime throws an Error (or a
// subclass) instead of a bare std::runtime_error, so callers that need to
// *dispatch* on the failure - the trial quarantine in
// eval::run_diagnosis_experiment, the CLI exit paths, the checkpoint
// loader - match on a small closed enum instead of parsing what() strings.
// The codes are stable identifiers: they appear in checkpoint journals,
// in the quarantine fields of experiment results / BENCH JSON, and in the
// DESIGN.md section 10 error-code table, so renaming one is a format
// change, not a refactor.
//
// Every Error still derives from std::runtime_error, so pre-taxonomy
// call sites (and tests) that catch std::runtime_error keep working.
//
//   code       meaning                                   typical thrower
//   ---------  ----------------------------------------  -----------------
//   parse      malformed input text (netlist, JSON)      bench_io, obs::parse_json
//   model      invalid model/config for the requested op experiment setup
//   numeric    non-finite or out-of-domain value          delay materialization
//   io         file open/write/rename/fsync failure       atomic_file, checkpoint
//   cancelled  cooperative cancellation was requested     CancelToken::poll
//   deadline   a time budget expired                      CancelToken::poll
//   fault      deterministically injected test failure    obs::fault_point
//   internal   anything else caught at a quarantine seam  (foreign exceptions)
//   store      persistent dictionary store is unusable    store::DictionaryStore
//              (bad magic/version, checksum mismatch,
//              truncation, fingerprint mismatch)
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sddd {

enum class ErrorCode : int {
  kParse = 0,
  kModel = 1,
  kNumeric = 2,
  kIo = 3,
  kCancelled = 4,
  kDeadline = 5,
  kFault = 6,
  kInternal = 7,
  kStore = 8,
};

/// Stable lower-case name of a code ("parse", "model", ...).
std::string_view error_code_name(ErrorCode code);

/// Inverse of error_code_name; false when `name` is not a known code.
bool parse_error_code(std::string_view name, ErrorCode* out);

/// Base of the taxonomy.  what() is "[<code>] <message>" so untyped log
/// lines still carry the code.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message);

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Malformed input text.  Carries the source label (file path or stream
/// name) and 1-based line so every parse diagnostic names its location;
/// line 0 = whole-input failure (e.g. a graph check after reading).
class ParseError : public Error {
 public:
  ParseError(std::string source, std::size_t line, const std::string& message);

  const std::string& source() const noexcept { return source_; }
  std::size_t line() const noexcept { return line_; }

 private:
  std::string source_;
  std::size_t line_;
};

class ModelError : public Error {
 public:
  explicit ModelError(const std::string& message)
      : Error(ErrorCode::kModel, message) {}
};

class NumericError : public Error {
 public:
  explicit NumericError(const std::string& message)
      : Error(ErrorCode::kNumeric, message) {}
};

class IoError : public Error {
 public:
  explicit IoError(const std::string& message)
      : Error(ErrorCode::kIo, message) {}
};

class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& message)
      : Error(ErrorCode::kCancelled, message) {}
};

class DeadlineError : public Error {
 public:
  explicit DeadlineError(const std::string& message)
      : Error(ErrorCode::kDeadline, message) {}
};

/// Thrown only by the fault-injection harness (obs/faults.h).
class FaultInjectedError : public Error {
 public:
  explicit FaultInjectedError(const std::string& message)
      : Error(ErrorCode::kFault, message) {}
};

/// A persistent dictionary store failed open-time verification (bad magic,
/// unsupported format version, per-section checksum mismatch, truncation,
/// or an experiment-fingerprint mismatch against the caller's stack).
/// Carries the offending section name ("header", "m", "e", ...) so the
/// serve path can quarantine precisely and tests can assert blame; empty
/// when the failure precedes section identification (e.g. open(2) failed).
class StoreError : public Error {
 public:
  StoreError(std::string section, const std::string& message)
      : Error(ErrorCode::kStore, message), section_(std::move(section)) {}

  const std::string& section() const noexcept { return section_; }

 private:
  std::string section_;
};

}  // namespace sddd
