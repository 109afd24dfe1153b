#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/atomic_file.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "obs/json.h"
#include "obs/log.h"

namespace sddd::obs {

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// One typed ledger field from its decoded JSON value; false when the value
// has the wrong kind.
bool read_value(const JsonValue& v, std::string* dst) {
  *dst = v.string;
  return v.is_string();
}

bool read_value(const JsonValue& v, double* dst) {
  *dst = v.number;
  return v.is_number();
}

bool read_value(const JsonValue& v, std::uint64_t* dst) {
  // Integral tokens keep their exact 64-bit value (seeds, counters).
  *dst = v.integer ? *v.integer
                   : static_cast<std::uint64_t>(std::llround(v.number));
  return v.is_number();
}

template <typename T>
bool read_value(const JsonValue& v, std::map<std::string, T>* dst) {
  for (const auto& [name, item] : v.object) {
    if (!read_value(item, &(*dst)[name])) return false;
  }
  return v.is_object();
}

constexpr std::string_view kCrcPrefix = "{\"crc\":\"";
constexpr std::size_t kCrcHexLen = 16;

}  // namespace

std::string encode_ledger_record(const LedgerRecord& rec) {
  // Payload first (everything the checksum covers), then the framing.
  std::string p;
  p.reserve(512);
  p.append("\"v\":").append(std::to_string(rec.version));
  const auto field = [&p](const char* name, std::string_view value) {
    p.append(",\"").append(name).append("\":");
    append_json_string(p, value);
  };
  const auto u64_field = [&p](const char* name, std::uint64_t value) {
    p.append(",\"").append(name).append("\":").append(std::to_string(value));
  };
  field("run_id", rec.run_id);
  field("tool", rec.tool);
  field("circuit", rec.circuit);
  field("git_sha", rec.git_sha);
  u64_field("seed", rec.seed);
  u64_field("threads", rec.threads);
  u64_field("mc_samples", rec.mc_samples);
  u64_field("n_chips", rec.n_chips);
  p.append(",\"wall_seconds\":").append(format_double(rec.wall_seconds));
  p.append(",\"phases\":{");
  bool first = true;
  for (const auto& [name, seconds] : rec.phases) {
    if (!first) p.push_back(',');
    first = false;
    append_json_string(p, name);
    p.push_back(':');
    p.append(format_double(seconds));
  }
  p.append("},\"counters\":{");
  first = true;
  for (const auto& [name, value] : rec.counters) {
    if (!first) p.push_back(',');
    first = false;
    append_json_string(p, name);
    p.push_back(':');
    p.append(std::to_string(value));
  }
  p.push_back('}');
  u64_field("peak_rss_kb", rec.peak_rss_kb);
  field("manifest_fnv", rec.manifest_fnv);
  field("result_fnv", rec.result_fnv);
  field("result_path", rec.result_path);
  u64_field("unix_ms", rec.unix_ms);
  p.push_back('}');

  std::string line;
  line.reserve(p.size() + 32);
  line.append(kCrcPrefix);
  line.append(hex64(fnv1a64(p)));
  line.append("\",");
  line.append(p);
  return line;
}

bool decode_ledger_record(std::string_view line, LedgerRecord* out) {
  // Frame check + checksum verification by pure string ops.
  const std::size_t payload_at = kCrcPrefix.size() + kCrcHexLen + 2;
  if (line.size() < payload_at + 2) return false;
  if (line.substr(0, kCrcPrefix.size()) != kCrcPrefix) return false;
  const std::string_view crc_hex = line.substr(kCrcPrefix.size(), kCrcHexLen);
  if (line.substr(kCrcPrefix.size() + kCrcHexLen, 2) != "\",") return false;
  const std::string_view payload = line.substr(payload_at);
  if (hex64(fnv1a64(payload)) != crc_hex) return false;

  // The payload is a JSON object body without its opening brace.
  JsonValue doc;
  try {
    doc = parse_json(std::string("{").append(payload));
  } catch (const ParseError&) {
    return false;
  }
  // Typed field reads.  Unknown keys (forward compatibility, and the
  // "bench"/"clients"/"batch" keys that serve-bench lines written before
  // their removal carry) are ignored; a field of the wrong type rejects
  // the line.
  LedgerRecord rec;
  auto version = static_cast<std::uint64_t>(rec.version);
  bool ok = true;
  const auto read = [&doc, &ok](const char* key, auto* dst) {
    if (const JsonValue* v = doc.get(key)) ok = ok && read_value(*v, dst);
  };
  read("v", &version);
  read("run_id", &rec.run_id);
  read("tool", &rec.tool);
  read("circuit", &rec.circuit);
  read("git_sha", &rec.git_sha);
  read("seed", &rec.seed);
  read("threads", &rec.threads);
  read("mc_samples", &rec.mc_samples);
  read("n_chips", &rec.n_chips);
  read("wall_seconds", &rec.wall_seconds);
  read("phases", &rec.phases);
  read("counters", &rec.counters);
  read("peak_rss_kb", &rec.peak_rss_kb);
  read("manifest_fnv", &rec.manifest_fnv);
  read("result_fnv", &rec.result_fnv);
  read("result_path", &rec.result_path);
  read("unix_ms", &rec.unix_ms);
  if (!ok) return false;
  rec.version = static_cast<int>(version);
  *out = std::move(rec);
  return true;
}

bool append_ledger_record(const std::string& path, const LedgerRecord& rec) {
  std::string line = encode_ledger_record(rec);
  line.push_back('\n');
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    SDDD_LOG_ERROR("ledger: cannot open %s for append: %s", path.c_str(),
                   std::strerror(errno));
    return false;
  }
  const bool ok = write_all(fd, line);
  if (!ok) {
    SDDD_LOG_ERROR("ledger: write to %s failed: %s", path.c_str(),
                   std::strerror(errno));
  } else if (::fsync(fd) != 0) {
    SDDD_LOG_WARN("ledger: fsync %s failed: %s", path.c_str(),
                  std::strerror(errno));
  }
  ::close(fd);
  return ok;
}

LedgerFile load_ledger(const std::string& path) {
  LedgerFile out;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    LedgerRecord rec;
    if (decode_ledger_record(line, &rec)) {
      out.records.push_back(std::move(rec));
    } else {
      ++out.skipped_lines;
      SDDD_LOG_WARN("ledger: %s line %zu is malformed or corrupt; skipped",
                    path.c_str(), line_no);
    }
  }
  return out;
}

std::optional<LedgerRecord> ledger_tail(const std::string& path) {
  LedgerFile file = load_ledger(path);
  if (file.records.empty()) return std::nullopt;
  return std::move(file.records.back());
}

std::string new_invocation_run_id(std::string_view tool,
                                  std::string_view git_sha) {
  std::string seed;
  seed.append(tool).push_back('|');
  seed.append(git_sha).push_back('|');
  seed.append(std::to_string(::getpid())).push_back('|');
  seed.append(std::to_string(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  return hex64(fnv1a64(seed));
}

std::uint64_t read_peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  if (!in.is_open()) return 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Diff

namespace {

/// One row per name in `a` or `b`, sorted by name, holding both sides'
/// values (0 for the side that lacks the name).
template <typename Row, typename T>
std::vector<Row> union_rows(const std::map<std::string, T>& a,
                            const std::map<std::string, T>& b) {
  std::map<std::string, Row> rows;
  for (const auto& [name, v] : a) rows[name].a = v;
  for (const auto& [name, v] : b) rows[name].b = v;
  std::vector<Row> out;
  for (auto& [name, row] : rows) {
    row.name = name;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

LedgerDiff diff_ledger_records(const LedgerRecord& a, const LedgerRecord& b) {
  LedgerDiff d;
  d.run_a = a.run_id;
  d.run_b = b.run_id;
  d.tool_a = a.tool;
  d.tool_b = b.tool;
  d.circuit_a = a.circuit;
  d.circuit_b = b.circuit;
  d.sha_a = a.git_sha;
  d.sha_b = b.git_sha;
  d.threads_a = a.threads;
  d.threads_b = b.threads;
  d.wall_a = a.wall_seconds;
  d.wall_b = b.wall_seconds;
  d.rss_a = a.peak_rss_kb;
  d.rss_b = b.peak_rss_kb;

  d.phases = union_rows<LedgerDiff::PhaseRow>(a.phases, b.phases);
  d.counters = union_rows<LedgerDiff::CounterRow>(a.counters, b.counters);

  if (a.result_fnv.empty() || b.result_fnv.empty()) {
    d.rank_stability = "unknown";
  } else if (a.run_id != b.run_id) {
    d.rank_stability = "n/a (different run_ids)";
  } else if (a.result_fnv == b.result_fnv) {
    d.rank_stability = "identical";
  } else {
    d.rank_stability = "DIFFERS";
  }
  return d;
}

namespace {

std::string pct_change(double a, double b) {
  if (a == 0.0) return b == 0.0 ? "+0.0%" : "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", (b - a) / a * 100.0);
  return buf;
}

}  // namespace

std::string ledger_diff_to_text(const LedgerDiff& d) {
  std::ostringstream os;
  os << "run A: " << d.run_a << "  (" << d.tool_a << " " << d.circuit_a
     << ", git " << (d.sha_a.empty() ? "?" : d.sha_a) << ", threads "
     << d.threads_a << ")\n";
  os << "run B: " << d.run_b << "  (" << d.tool_b << " " << d.circuit_b
     << ", git " << (d.sha_b.empty() ? "?" : d.sha_b) << ", threads "
     << d.threads_b << ")\n\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-22s %12.4f %12.4f %12.4f %10s\n", "wall_s",
                d.wall_a, d.wall_b, d.wall_b - d.wall_a,
                pct_change(d.wall_a, d.wall_b).c_str());
  os << "phase                            run A        run B        delta"
     << "   % change\n"
     << buf;
  for (const auto& row : d.phases) {
    std::snprintf(buf, sizeof(buf), "%-22s %12.4f %12.4f %12.4f %10s\n",
                  row.name.c_str(), row.a, row.b, row.b - row.a,
                  pct_change(row.a, row.b).c_str());
    os << buf;
  }
  if (d.rss_a != 0 || d.rss_b != 0) {
    std::snprintf(buf, sizeof(buf), "%-22s %12llu %12llu %+12lld\n",
                  "peak_rss_kb", static_cast<unsigned long long>(d.rss_a),
                  static_cast<unsigned long long>(d.rss_b),
                  static_cast<long long>(d.rss_b) -
                      static_cast<long long>(d.rss_a));
    os << buf;
  }
  os << "\ncounters (changed only):\n";
  std::size_t changed = 0;
  for (const auto& row : d.counters) {
    if (row.a == row.b) continue;
    ++changed;
    std::snprintf(buf, sizeof(buf), "  %-28s %14llu %14llu %+14lld %9s\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.a),
                  static_cast<unsigned long long>(row.b),
                  static_cast<long long>(row.b) - static_cast<long long>(row.a),
                  pct_change(static_cast<double>(row.a),
                             static_cast<double>(row.b))
                      .c_str());
    os << buf;
  }
  if (changed == 0) os << "  (none)\n";
  os << "\nrank stability: " << d.rank_stability << "\n";
  return os.str();
}

std::string ledger_diff_to_json(const LedgerDiff& d) {
  std::string j;
  j.reserve(1024);
  j.append("{\n  \"run_a\": ");
  append_json_string(j, d.run_a);
  j.append(",\n  \"run_b\": ");
  append_json_string(j, d.run_b);
  j.append(",\n  \"tool_a\": ");
  append_json_string(j, d.tool_a);
  j.append(",\n  \"tool_b\": ");
  append_json_string(j, d.tool_b);
  j.append(",\n  \"circuit_a\": ");
  append_json_string(j, d.circuit_a);
  j.append(",\n  \"circuit_b\": ");
  append_json_string(j, d.circuit_b);
  j.append(",\n  \"git_sha_a\": ");
  append_json_string(j, d.sha_a);
  j.append(",\n  \"git_sha_b\": ");
  append_json_string(j, d.sha_b);
  j.append(",\n  \"threads_a\": ").append(std::to_string(d.threads_a));
  j.append(",\n  \"threads_b\": ").append(std::to_string(d.threads_b));
  j.append(",\n  \"wall_a\": ").append(format_double(d.wall_a));
  j.append(",\n  \"wall_b\": ").append(format_double(d.wall_b));
  j.append(",\n  \"peak_rss_kb_a\": ").append(std::to_string(d.rss_a));
  j.append(",\n  \"peak_rss_kb_b\": ").append(std::to_string(d.rss_b));
  j.append(",\n  \"phases\": {");
  bool first = true;
  for (const auto& row : d.phases) {
    if (!first) j.push_back(',');
    first = false;
    j.append("\n    ");
    append_json_string(j, row.name);
    j.append(": {\"a\": ").append(format_double(row.a));
    j.append(", \"b\": ").append(format_double(row.b));
    j.append(", \"delta\": ").append(format_double(row.b - row.a));
    j.push_back('}');
  }
  j.append(first ? "}" : "\n  }");
  j.append(",\n  \"counters\": {");
  first = true;
  for (const auto& row : d.counters) {
    if (row.a == row.b) continue;
    if (!first) j.push_back(',');
    first = false;
    j.append("\n    ");
    append_json_string(j, row.name);
    j.append(": {\"a\": ").append(std::to_string(row.a));
    j.append(", \"b\": ").append(std::to_string(row.b));
    j.append(", \"delta\": ")
        .append(std::to_string(static_cast<long long>(row.b) -
                               static_cast<long long>(row.a)));
    j.push_back('}');
  }
  j.append(first ? "}" : "\n  }");
  j.append(",\n  \"rank_stability\": ");
  append_json_string(j, d.rank_stability);
  j.append("\n}\n");
  return j;
}

}  // namespace sddd::obs
