// trace.h - Scoped-span tracer emitting Chrome trace_event JSON.
//
// Spans mark where time goes inside a run: Monte-Carlo simulation,
// dictionary construction, diagnosis scoring, pool jobs.  The output is
// the Chrome trace format ("X" complete events with microsecond ts/dur),
// so a capture opens directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
//
// Cost model, from cheapest to free:
//   - compiled out:   build with -DSDDD_TRACE=OFF (cmake option) and the
//                     SDDD_SPAN macros expand to a no-op NullSpan - zero
//                     overhead in the hot loop, args are never evaluated
//                     into events;
//   - compiled in, disabled (the default at runtime): constructing a span
//     is one relaxed atomic load and a branch; no allocation, no clock
//     read, no event;
//   - enabled: two clock reads per span plus one buffered event; events go
//     to per-thread buffers (no lock on the hot path beyond an uncontended
//     per-buffer mutex) and merge sorted by timestamp at write time.
//
// Runtime enablement: obs::configure_observability_from_args (--trace-out
// FILE or the SDDD_TRACE environment variable; see obs/obs.h) or
// Tracer::instance().enable() directly.
//
// Span names are static strings, dot-namespaced by subsystem
// ("dict.slice", "diag.kernel.pattern", "pool.run", "exp.trial", ...;
// catalog in DESIGN.md section 9).  Up to 4 args per span carry
// identifying context (circuit, suspect id, pattern index).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef SDDD_TRACE
#define SDDD_TRACE 1
#endif

namespace sddd::obs {

/// True in builds where the SDDD_SPAN macros emit real spans.
inline constexpr bool kTraceCompiledIn = SDDD_TRACE != 0;

struct TraceArg {
  enum class Kind : std::uint8_t { kNone, kInt, kDouble, kString };
  const char* key = nullptr;  ///< static-storage string
  Kind kind = Kind::kNone;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
};

inline constexpr std::size_t kMaxSpanArgs = 4;

struct TraceEvent {
  const char* name = nullptr;  ///< static-storage string
  std::uint64_t ts_ns = 0;     ///< since the tracer epoch (enable() time)
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::array<TraceArg, kMaxSpanArgs> args;
  std::uint8_t n_args = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts capturing; the epoch (ts = 0) is the first enable() call so
  /// timestamps stay small and Perfetto-friendly.
  void enable();
  void disable();

  /// Drops every buffered event (tests; the capture files of separate runs).
  void clear();

  std::size_t event_count() const;
  std::uint64_t dropped_count() const;

  /// Appends one complete event to the calling thread's buffer.  Buffers
  /// are capped (1M events per thread); overflow increments the dropped
  /// counter instead of growing without bound.
  void record(TraceEvent&& event);

  /// Stable per-thread id used in the "tid" field (assigned in first-use
  /// order, starting at 0).
  std::uint32_t this_thread_tid();

  /// Chrome trace JSON of everything captured so far, events sorted by
  /// timestamp.  Safe to call while disabled; concurrent recording threads
  /// only block on their own buffer's mutex.
  void write_json(std::ostream& os) const;
  bool write_file(const std::string& path) const;
  std::uint64_t epoch_ns() const { return epoch_ns_; }

 private:
  Tracer() = default;
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::uint64_t epoch_ns_ = 0;
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex mu_;  ///< guards buffers_ (the list, not the events)
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: records one "X" event covering its lifetime.  When the
/// tracer is disabled the constructor is a relaxed load + branch and every
/// other member is a no-op (no allocation - the determinism and overhead
/// contract tests rely on this).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (Tracer::instance().enabled()) {
      name_ = name;
      start_ns_ = now_ns_();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (name_ != nullptr) finish();
  }

  ScopedSpan& arg(const char* key, std::int64_t v) noexcept;
  ScopedSpan& arg(const char* key, std::uint64_t v) noexcept;
  ScopedSpan& arg(const char* key, int v) noexcept {
    return arg(key, static_cast<std::int64_t>(v));
  }
  ScopedSpan& arg(const char* key, double v) noexcept;
  ScopedSpan& arg(const char* key, std::string_view v);

 private:
  static std::uint64_t now_ns_();
  TraceArg* next_arg(const char* key) noexcept;
  void finish() noexcept;

  const char* name_ = nullptr;  ///< nullptr = span inactive
  std::uint64_t start_ns_ = 0;
  std::array<TraceArg, kMaxSpanArgs> args_;
  std::uint8_t n_args_ = 0;
};

/// Compiled-out stand-in: every member is an inline no-op.
struct NullSpan {
  template <typename T>
  NullSpan& arg(const char*, T&&) noexcept {
    return *this;
  }
};

}  // namespace sddd::obs

// SDDD_SPAN(var, "name") declares a scoped span named `var`; annotate it
// with var.arg("key", value).  With -DSDDD_TRACE=OFF the span (and every
// arg expression's side effects on the trace) compiles away.
#if SDDD_TRACE
#define SDDD_SPAN(var, name) ::sddd::obs::ScopedSpan var((name))
#else
#define SDDD_SPAN(var, name) \
  ::sddd::obs::NullSpan var; \
  (void)var
#endif
