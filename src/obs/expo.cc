#include "obs/expo.h"

#include <algorithm>

#include "obs/codec.h"

namespace sddd::obs {

namespace {

/// Prometheus metric-name charset: [a-zA-Z0-9_], everything else folds
/// to '_'.  Prefixed "sddd_" (plus "win_" for windowed series).
std::string prom_name(std::string_view prefix, std::string_view name) {
  std::string out(prefix);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace ids

bool valid_trace_id(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::uint64_t trace_key(std::string_view id) {
  if (id.empty() || id.size() > 16) return fnv1a64(id);
  std::uint64_t v = 0;
  for (const char c : id) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return fnv1a64(id);  // not canonical hex: hash it
    }
    v = (v << 4) | digit;
  }
  return v;
}

// ---------------------------------------------------------------------------
// SlowRequestRing

void SlowRequestRing::insert(SlowRequest request) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.seq = next_seq_++;
  entry.request = std::move(request);
  if (entries_.size() < capacity_) {
    entries_.push_back(std::move(entry));
    return;
  }
  // Evict the fastest entry; on a total_us tie the LATER insertion goes,
  // so long-lived slow requests are stable under churn.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const Entry& v = entries_[victim];
    if (e.request.total_us < v.request.total_us ||
        (e.request.total_us == v.request.total_us && e.seq > v.seq)) {
      victim = i;
    }
  }
  if (entry.request.total_us <= entries_[victim].request.total_us) {
    return;  // the newcomer is the victim (ties keep the earlier entry)
  }
  entries_[victim] = std::move(entry);
}

std::vector<SlowRequest> SlowRequestRing::top() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    if (a.request.total_us != b.request.total_us) {
      return a.request.total_us > b.request.total_us;
    }
    return a.seq < b.seq;
  });
  std::vector<SlowRequest> out;
  out.reserve(sorted.size());
  for (Entry& e : sorted) out.push_back(std::move(e.request));
  return out;
}

// ---------------------------------------------------------------------------
// Renderers

std::string stats_to_json(const StatsSnapshot& s) {
  std::string out = "{\"ok\":true,\"op\":\"stats\"";
  out.append(",\"service\":").append(json_string(s.service));
  out.append(",\"git_sha\":").append(json_string(s.git_sha));
  out.append(",\"uptime_s\":").append(json_double(s.uptime_s));
  out.append(",\"draining\":").append(s.draining ? "true" : "false");
  out.append(",\"inflight\":").append(std::to_string(s.inflight));
  out.append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    if (!first) out.push_back(',');
    first = false;
    out.append(json_string(name)).append(":").append(std::to_string(v));
  }
  out.append("},\"window\":").append(s.window.to_json());
  out.append(",\"slow\":[");
  for (std::size_t i = 0; i < s.slow.size(); ++i) {
    const SlowRequest& r = s.slow[i];
    if (i > 0) out.push_back(',');
    out.append("{\"trace_id\":").append(json_string(r.trace_id));
    out.append(",\"circuit\":").append(json_string(r.circuit));
    out.append(",\"batch\":").append(std::to_string(r.batch));
    out.append(",\"total_us\":").append(std::to_string(r.total_us));
    out.append(",\"phases\":{");
    bool p_first = true;
    for (const auto& [phase, us] : r.phases_us) {
      if (!p_first) out.push_back(',');
      p_first = false;
      out.append(json_string(phase)).append(":").append(std::to_string(us));
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

std::string stats_to_prometheus(const StatsSnapshot& s) {
  std::string out;
  const auto gauge = [&out](const std::string& name, const std::string& v) {
    out.append("# TYPE ").append(name).append(" gauge\n");
    out.append(name).append(" ").append(v).append("\n");
  };
  gauge(prom_name("sddd_", "uptime_seconds"), json_double(s.uptime_s));
  gauge(prom_name("sddd_", "draining"), s.draining ? "1" : "0");
  gauge(prom_name("sddd_", "inflight"), std::to_string(s.inflight));
  for (const auto& [name, v] : s.counters) {
    const std::string p = prom_name("sddd_", name) + "_total";
    out.append("# TYPE ").append(p).append(" counter\n");
    out.append(p).append(" ").append(std::to_string(v)).append("\n");
  }
  // Windowed series: counters become gauges (a rate over the horizon),
  // histograms the standard cumulative-bucket exposition.
  for (const auto& [name, v] : s.window.counters) {
    gauge(prom_name("sddd_win_", name), std::to_string(v));
  }
  for (const auto& [name, h] : s.window.histograms) {
    const std::string p = prom_name("sddd_win_", name);
    out.append("# TYPE ").append(p).append(" histogram\n");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out.append(p).append("_bucket{le=\"");
      out.append(i < h.bounds.size() ? json_double(h.bounds[i]) : "+Inf");
      out.append("\"} ").append(std::to_string(cumulative)).append("\n");
    }
    out.append(p).append("_sum ").append(std::to_string(h.sum)).append("\n");
    out.append(p).append("_count ")
        .append(std::to_string(h.total()))
        .append("\n");
  }
  return out;
}

}  // namespace sddd::obs
