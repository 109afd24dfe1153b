#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/codec.h"
#include "obs/log.h"

namespace sddd::obs {

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Minimal JSON cursor: just enough to read the flat-ish records the ledger
// writes (strings, numbers, one level of nested {string: number} maps).
// Unknown keys are skipped so old readers tolerate newer records.

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool done() const { return i >= s.size(); }
  char peek() const { return done() ? '\0' : s[i]; }
  void skip_ws() {
    while (!done() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
  bool expect(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++i;
    return true;
  }
};

bool parse_string(Cursor* c, std::string* out) {
  if (!c->expect('"')) return false;
  out->clear();
  while (!c->done()) {
    const char ch = c->s[c->i++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c->done()) return false;
      const char esc = c->s[c->i++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'u': {
          if (c->i + 4 > c->s.size()) return false;
          char hex[5] = {c->s[c->i], c->s[c->i + 1], c->s[c->i + 2],
                         c->s[c->i + 3], '\0'};
          c->i += 4;
          out->push_back(static_cast<char>(
              std::strtoul(hex, nullptr, 16) & 0xFFu));
          break;
        }
        default:
          return false;
      }
    } else {
      out->push_back(ch);
    }
  }
  return false;  // unterminated
}

/// Parses a JSON number; reports both renderings so callers can keep full
/// 64-bit precision for integer counters.
bool parse_number(Cursor* c, double* as_double, std::uint64_t* as_u64) {
  c->skip_ws();
  const std::size_t start = c->i;
  bool integral = true;
  if (c->peek() == '-') ++c->i;
  while (!c->done()) {
    const char ch = c->peek();
    if (std::isdigit(static_cast<unsigned char>(ch)) != 0) {
      ++c->i;
    } else if (ch == '.' || ch == 'e' || ch == 'E' || ch == '+' || ch == '-') {
      integral = false;
      ++c->i;
    } else {
      break;
    }
  }
  if (c->i == start) return false;
  const std::string text(c->s.substr(start, c->i - start));
  *as_double = std::strtod(text.c_str(), nullptr);
  *as_u64 = integral ? std::strtoull(text.c_str(), nullptr, 10)
                     : static_cast<std::uint64_t>(std::llround(*as_double));
  return true;
}

/// Skips any JSON value (used for unknown keys).
bool skip_value(Cursor* c) {
  c->skip_ws();
  const char ch = c->peek();
  if (ch == '"') {
    std::string dummy;
    return parse_string(c, &dummy);
  }
  if (ch == '{' || ch == '[') {
    const char close = ch == '{' ? '}' : ']';
    ++c->i;
    int depth = 1;
    bool in_string = false;
    while (!c->done() && depth > 0) {
      const char k = c->s[c->i++];
      if (in_string) {
        if (k == '\\') {
          if (!c->done()) ++c->i;
        } else if (k == '"') {
          in_string = false;
        }
      } else if (k == '"') {
        in_string = true;
      } else if (k == ch) {
        ++depth;
      } else if (k == close) {
        --depth;
      }
    }
    return depth == 0;
  }
  if (ch == 't') {
    if (c->s.substr(c->i, 4) != "true") return false;
    c->i += 4;
    return true;
  }
  if (ch == 'f') {
    if (c->s.substr(c->i, 5) != "false") return false;
    c->i += 5;
    return true;
  }
  if (ch == 'n') {
    if (c->s.substr(c->i, 4) != "null") return false;
    c->i += 4;
    return true;
  }
  double d = 0.0;
  std::uint64_t u = 0;
  return parse_number(c, &d, &u);
}

/// Parses `{ "key": number, ... }` into either map (one may be null).
bool parse_number_map(Cursor* c, std::map<std::string, double>* doubles,
                      std::map<std::string, std::uint64_t>* u64s) {
  if (!c->expect('{')) return false;
  c->skip_ws();
  if (c->peek() == '}') {
    ++c->i;
    return true;
  }
  while (true) {
    std::string key;
    if (!parse_string(c, &key)) return false;
    if (!c->expect(':')) return false;
    double d = 0.0;
    std::uint64_t u = 0;
    if (!parse_number(c, &d, &u)) return false;
    if (doubles != nullptr) (*doubles)[key] = d;
    if (u64s != nullptr) (*u64s)[key] = u;
    c->skip_ws();
    if (c->peek() == ',') {
      ++c->i;
      continue;
    }
    return c->expect('}');
  }
}

constexpr std::string_view kCrcPrefix = "{\"crc\":\"";
constexpr std::size_t kCrcHexLen = 16;

}  // namespace

std::string ledger_hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

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
  if (!rec.bench.empty()) {
    field("bench", rec.bench);
    u64_field("clients", rec.clients);
    u64_field("batch", rec.batch);
  }
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
  line.append(ledger_hex64(fnv1a64(p)));
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
  if (ledger_hex64(fnv1a64(payload)) != crc_hex) return false;

  // Parse the payload as an (opening-brace-less) JSON object body.
  LedgerRecord rec;
  Cursor c{payload, 0};
  while (true) {
    std::string key;
    if (!parse_string(&c, &key)) return false;
    if (!c.expect(':')) return false;
    bool ok = true;
    double d = 0.0;
    std::uint64_t u = 0;
    if (key == "v") {
      ok = parse_number(&c, &d, &u);
      rec.version = static_cast<int>(u);
    } else if (key == "run_id") {
      ok = parse_string(&c, &rec.run_id);
    } else if (key == "tool") {
      ok = parse_string(&c, &rec.tool);
    } else if (key == "circuit") {
      ok = parse_string(&c, &rec.circuit);
    } else if (key == "git_sha") {
      ok = parse_string(&c, &rec.git_sha);
    } else if (key == "seed") {
      ok = parse_number(&c, &d, &rec.seed);
    } else if (key == "threads") {
      ok = parse_number(&c, &d, &rec.threads);
    } else if (key == "mc_samples") {
      ok = parse_number(&c, &d, &rec.mc_samples);
    } else if (key == "n_chips") {
      ok = parse_number(&c, &d, &rec.n_chips);
    } else if (key == "bench") {
      ok = parse_string(&c, &rec.bench);
    } else if (key == "clients") {
      ok = parse_number(&c, &d, &rec.clients);
    } else if (key == "batch") {
      ok = parse_number(&c, &d, &rec.batch);
    } else if (key == "wall_seconds") {
      ok = parse_number(&c, &rec.wall_seconds, &u);
    } else if (key == "phases") {
      ok = parse_number_map(&c, &rec.phases, nullptr);
    } else if (key == "counters") {
      ok = parse_number_map(&c, nullptr, &rec.counters);
    } else if (key == "peak_rss_kb") {
      ok = parse_number(&c, &d, &rec.peak_rss_kb);
    } else if (key == "manifest_fnv") {
      ok = parse_string(&c, &rec.manifest_fnv);
    } else if (key == "result_fnv") {
      ok = parse_string(&c, &rec.result_fnv);
    } else if (key == "result_path") {
      ok = parse_string(&c, &rec.result_path);
    } else if (key == "unix_ms") {
      ok = parse_number(&c, &d, &rec.unix_ms);
    } else {
      ok = skip_value(&c);  // forward compatibility
    }
    if (!ok) return false;
    c.skip_ws();
    if (c.peek() == ',') {
      ++c.i;
      continue;
    }
    if (!c.expect('}')) return false;
    break;
  }
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
  bool ok = true;
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      SDDD_LOG_ERROR("ledger: write to %s failed: %s", path.c_str(),
                     std::strerror(errno));
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) {
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
  return ledger_hex64(fnv1a64(seed));
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
  d.bench_a = a.bench;
  d.bench_b = b.bench;
  d.clients_a = a.clients;
  d.clients_b = b.clients;
  d.batch_a = a.batch;
  d.batch_b = b.batch;
  d.threads_a = a.threads;
  d.threads_b = b.threads;
  d.wall_a = a.wall_seconds;
  d.wall_b = b.wall_seconds;
  d.rss_a = a.peak_rss_kb;
  d.rss_b = b.peak_rss_kb;

  for (const auto& [name, seconds] : a.phases) {
    d.phases.push_back({name, seconds, 0.0});
  }
  for (const auto& [name, seconds] : b.phases) {
    auto it = std::find_if(d.phases.begin(), d.phases.end(),
                           [&](const auto& row) { return row.name == name; });
    if (it == d.phases.end()) {
      d.phases.push_back({name, 0.0, seconds});
    } else {
      it->b = seconds;
    }
  }
  std::sort(d.phases.begin(), d.phases.end(),
            [](const auto& x, const auto& y) { return x.name < y.name; });

  for (const auto& [name, value] : a.counters) {
    d.counters.push_back({name, value, 0});
  }
  for (const auto& [name, value] : b.counters) {
    auto it = std::find_if(d.counters.begin(), d.counters.end(),
                           [&](const auto& row) { return row.name == name; });
    if (it == d.counters.end()) {
      d.counters.push_back({name, 0, value});
    } else {
      it->b = value;
    }
  }
  std::sort(d.counters.begin(), d.counters.end(),
            [](const auto& x, const auto& y) { return x.name < y.name; });

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
  const auto serve_suffix = [](const std::string& bench, std::uint64_t clients,
                               std::uint64_t batch) {
    if (bench.empty()) return std::string();
    std::string s = ", bench " + bench;
    if (clients != 0 || batch != 0) {
      s += ", clients " + std::to_string(clients) + ", batch " +
           std::to_string(batch);
    }
    return s;
  };
  os << "run A: " << d.run_a << "  (" << d.tool_a << " " << d.circuit_a
     << ", git " << (d.sha_a.empty() ? "?" : d.sha_a) << ", threads "
     << d.threads_a << serve_suffix(d.bench_a, d.clients_a, d.batch_a)
     << ")\n";
  os << "run B: " << d.run_b << "  (" << d.tool_b << " " << d.circuit_b
     << ", git " << (d.sha_b.empty() ? "?" : d.sha_b) << ", threads "
     << d.threads_b << serve_suffix(d.bench_b, d.clients_b, d.batch_b)
     << ")\n\n";
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
  j.append(",\n  \"bench_a\": ");
  append_json_string(j, d.bench_a);
  j.append(",\n  \"bench_b\": ");
  append_json_string(j, d.bench_b);
  j.append(",\n  \"clients_a\": ").append(std::to_string(d.clients_a));
  j.append(",\n  \"clients_b\": ").append(std::to_string(d.clients_b));
  j.append(",\n  \"batch_a\": ").append(std::to_string(d.batch_a));
  j.append(",\n  \"batch_b\": ").append(std::to_string(d.batch_b));
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
