#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/metrics.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans

namespace {
// The span open on this thread; children record it as their parent.
thread_local std::int64_t t_open_span = -1;
}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name,
                           std::uint64_t request) {
  if (!rec.enabled_) return;
  rec_ = &rec;
  saved_parent_ = t_open_span;
  {
    const std::lock_guard<std::mutex> lock(rec.mu_);
    index_ = static_cast<std::int64_t>(rec.spans_.size());
    rec.spans_.push_back(Span{name, 0, 0, saved_parent_, request});
  }
  t_open_span = index_;
  const std::uint64_t t = sddd::obs::now_ns();
  const std::lock_guard<std::mutex> lock(rec.mu_);
  rec.spans_[static_cast<std::size_t>(index_)].start_ns = t;
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  const std::uint64_t t = sddd::obs::now_ns();
  {
    const std::lock_guard<std::mutex> lock(rec_->mu_);
    rec_->spans_[static_cast<std::size_t>(index_)].end_ns = t;
  }
  t_open_span = saved_parent_;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {spans_.begin(), spans_.end()};
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals(
    const char* root) const {
  const std::vector<Span> all = spans();
  // A parent's children ran on its own thread, one after another, so the
  // time they cover is the sum of their durations.
  std::vector<std::uint64_t> child_ns(all.size(), 0);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  const auto root_name = [&all](std::size_t i) {
    while (all[i].parent >= 0) i = static_cast<std::size_t>(all[i].parent);
    return all[i].name;
  };
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (root != nullptr && std::strcmp(root_name(i), root) != 0) continue;
    const double dur = static_cast<double>(all[i].end_ns - all[i].start_ns);
    Totals& t = out[all[i].name];
    ++t.count;
    t.total_s += dur * 1e-9;
    t.self_s += (dur - static_cast<double>(child_ns[i])) * 1e-9;
  }
  return out;
}

SpanRecorder::Totals SpanRecorder::of(
    const std::map<std::string, Totals>& totals, const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? Totals{} : it->second;
}

bool SpanRecorder::write_jsonl(const std::string& path,
                               const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span> all = spans();
  const std::uint64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"workload\":\"" << workload << "\",\"id\":" << i
        << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << format_number(static_cast<double>(s.start_ns - t0) * 1e-3)
        << ",\"end_us\":"
        << format_number(static_cast<double>(s.end_ns - t0) * 1e-3)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Statistics

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double tail_percentile(std::size_t n) {
  if (n < 20) return 50.0;
  const double p =
      std::floor(100.0 * static_cast<double>(n - 10) / static_cast<double>(n));
  return std::clamp(p, 50.0, 99.0);
}

double windowed_quantile(const std::vector<double>& samples,
                         std::size_t per_window, double q) {
  if (samples.size() < per_window) return quantile(samples, q);
  std::vector<double> per;
  for (std::size_t i = 0; i + per_window <= samples.size(); i += per_window) {
    per.push_back(quantile(
        {samples.begin() + static_cast<std::ptrdiff_t>(i),
         samples.begin() + static_cast<std::ptrdiff_t>(i + per_window)},
        q));
  }
  return median(per);
}

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Host facts

double loadavg_1min() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Result line

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

double Result::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Result::fail_check(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

std::string Result::to_json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":{\"value\":" + format_number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
