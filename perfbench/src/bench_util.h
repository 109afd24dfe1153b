// bench_util.h - Shared pieces of the SDDD benchmark driver: options, the
// in-memory span recorder behind the traced runs, quantiles, host facts and
// the result line.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  std::string spans_out;  ///< JSON-lines span dump of a traced run; "" = none
  std::string work_dir = ".";  ///< scratch files (the serve store, its socket)
  std::string git_sha = "unknown";
};

/// Seconds on the steady clock.
double now_s();

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a module: name, start, end, the span that was open
/// on the same thread when it started (-1 = none), and the request it
/// belongs to (trial index, chip index or hashed wire trace id).
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Records spans in memory; they are written out once, at the end of the
/// run.  A disabled recorder makes every Scope a no-op, so the untraced
/// runs share the code of the traced ones.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_ = nullptr;  ///< null when recording is off
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Per span name: count, total seconds and self seconds (duration minus
  /// the time covered by child spans).  With `root`, only spans whose
  /// outermost ancestor (or themselves) carries that name count.
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> totals(const char* root = nullptr) const;
  /// One name's entry of totals(root); zero when no such span ran.
  static Totals of(const std::map<std::string, Totals>& totals,
                   const char* name);

  /// Writes one JSON object per span to `path`; false when it cannot.
  bool write_jsonl(const std::string& path, const std::string& workload) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::deque<Span> spans_;  ///< deque: a span keeps its address as it grows
};

// ---------------------------------------------------------------------------
// Statistics

/// a / b, or 0 when b is not positive.
double ratio(double a, double b);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The highest percentile (at most 99) with at least ten samples above it
/// in a sample of `n`; 50 when even the median has fewer.
double tail_percentile(std::size_t n);

/// Median over consecutive windows of `per_window` samples (a shorter
/// trailing window is dropped; fewer samples than one window form one
/// window) of each window's q-quantile.  A burst of
/// interference from outside the benchmark then spoils one window instead
/// of the run's whole tail.
double windowed_quantile(const std::vector<double>& samples,
                         std::size_t per_window, double q);

std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t h = 0xcbf29ce484222325ULL);

// ---------------------------------------------------------------------------
// Host facts

double loadavg_1min();
double process_cpu_s();
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Result line

class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  double get(const std::string& name) const;

  /// Marks the run incorrect and says why on stderr.
  void fail_check(const std::string& why);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Workload facts for the record line (values are raw JSON).
  std::map<std::string, std::string> record;

  /// The final stdout line: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":v,"unit":u},...}}.
  std::string to_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

/// Shortest round-trip spelling of a double; non-finite values become 0.
std::string format_number(double v);

}  // namespace perfbench
