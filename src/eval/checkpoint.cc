#include "eval/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/atomic_file.h"
#include "obs/codec.h"
#include "obs/faults.h"

namespace sddd::eval {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

bool parse_hex64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

std::string double_hex(double d) { return hex64(std::bit_cast<std::uint64_t>(d)); }

bool parse_double_hex(std::string_view s, double* out) {
  std::uint64_t bits = 0;
  if (!parse_hex64(s, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

/// Journal messages are single-line by construction, but defend the format
/// anyway: escape backslash and newline so one record is always one line.
std::string escape_message(std::string_view msg) {
  std::string out;
  out.reserve(msg.size());
  for (const char c : msg) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_message(std::string_view msg) {
  std::string out;
  out.reserve(msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) {
    if (msg[i] == '\\' && i + 1 < msg.size()) {
      out += msg[i + 1] == 'n' ? '\n' : msg[i + 1];
      ++i;
    } else {
      out += msg[i];
    }
  }
  return out;
}

constexpr std::string_view kHeaderMagic = "sddd-ckpt v1 ";

std::string header_line(std::uint64_t fingerprint, std::size_t n_trials) {
  return std::string(kHeaderMagic) + hex64(fingerprint) + ' ' +
         std::to_string(n_trials) + '\n';
}

void write_all_fd(int fd, std::string_view data, const std::string& path) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::write(fd, data.data() + off, data.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError("checkpoint write failed for " + path + ": " +
                    std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

const char* status_names[] = {"not_failing", "diagnosed", "quarantined",
                              "skipped"};

bool parse_trial_status(std::string_view name, TrialStatus* out) {
  for (int i = 0; i < 4; ++i) {
    if (name == status_names[i]) {
      *out = static_cast<TrialStatus>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

std::uint64_t experiment_fingerprint(const std::string& circuit_name,
                                     const ExperimentConfig& c) {
  // Serialize every knob that changes per-trial outcomes; hash the text.
  // Timings and the checkpoint/resume/deadline knobs are deliberately
  // excluded: they change how a run executes, not what it computes.
  std::ostringstream os;
  os << circuit_name << '|' << c.seed << '|' << c.n_chips << '|'
     << c.mc_samples << '|' << c.instance_samples << '|'
     << static_cast<int>(c.site_bias) << '|' << double_hex(c.detectable_lambda_lo)
     << '|' << double_hex(c.detectable_lambda_hi) << '|' << c.n_defects << '|'
     << double_hex(c.clk_site_quantile) << '|' << c.calibration_sites << '|'
     << double_hex(c.global_weight) << '|' << double_hex(c.defect_mean_lo)
     << '|' << double_hex(c.defect_mean_hi) << '|'
     << double_hex(c.defect_three_sigma) << '|' << c.max_suspects << '|'
     << c.match_on_signature << '|' << c.include_logic_baseline << '|'
     << c.max_injection_retries << '|';
  for (const auto m : c.methods) os << static_cast<int>(m) << ',';
  os << '|' << c.pattern_config.paths_per_site << ','
     << c.pattern_config.candidate_paths << ',' << c.pattern_config.try_robust
     << ',' << c.pattern_config.site_search_patterns << ','
     << c.pattern_config.site_search_tries << ','
     << c.pattern_config.random_patterns << ',' << c.pattern_config.max_patterns
     << '|' << double_hex(c.library.buf_delay) << ','
     << double_hex(c.library.not_delay) << ',' << double_hex(c.library.nand_delay)
     << ',' << double_hex(c.library.nor_delay) << ','
     << double_hex(c.library.and_delay) << ',' << double_hex(c.library.or_delay)
     << ',' << double_hex(c.library.xor_delay) << ','
     << double_hex(c.library.xnor_delay) << ','
     << double_hex(c.library.arity_factor) << ','
     << double_hex(c.library.load_slope) << ','
     << double_hex(c.library.three_sigma_pct);
  return obs::fnv1a64(os.str());
}

std::string encode_checkpoint_record(std::size_t trial,
                                     const TrialRecord& r) {
  std::ostringstream os;
  os << trial << ' ' << trial_status_name(r.status) << ' '
     << error_code_name(r.error_code) << ' ' << r.injection_attempts << ' '
     << (r.failed_test ? 1 : 0) << ' ' << r.n_patterns << ' '
     << r.n_failing_cells << ' ' << r.n_suspects << ' '
     << (r.true_arc_in_suspects ? 1 : 0) << ' ' << r.logic_baseline_rank
     << ' ' << r.chip.sample_index << ' ' << r.chip.defect_arc << ' '
     << double_hex(r.chip.defect_size) << ' ' << double_hex(r.chip.size_mean)
     << ' ' << r.rank_of_true.size();
  for (const int rank : r.rank_of_true) os << ' ' << rank;
  os << ' ' << r.extra_defects.size();
  for (const auto& [arc, size] : r.extra_defects) {
    os << ' ' << arc << ':' << double_hex(size);
  }
  os << " m=" << escape_message(r.error_message);
  const std::string payload = os.str();
  return "T " + hex64(obs::fnv1a64(payload)) + ' ' + payload;
}

bool decode_checkpoint_record(const std::string& line, CheckpointRecord* out) {
  if (line.size() < 2 || line[0] != 'T' || line[1] != ' ') return false;
  const std::size_t crc_end = line.find(' ', 2);
  if (crc_end == std::string::npos) return false;
  std::uint64_t crc = 0;
  if (!parse_hex64(std::string_view(line).substr(2, crc_end - 2), &crc)) {
    return false;
  }
  const std::string payload = line.substr(crc_end + 1);
  if (obs::fnv1a64(payload) != crc) return false;

  // The message field is "m=<rest of line>"; split it off first so the
  // stream below only sees whitespace-delimited scalars.
  const std::size_t m_pos = payload.rfind(" m=");
  if (m_pos == std::string::npos) return false;
  std::istringstream is(payload.substr(0, m_pos));
  CheckpointRecord rec;
  TrialRecord& r = rec.record;
  std::string status_name;
  std::string code_name;
  std::string ds_hex;
  std::string sm_hex;
  int failed = 0;
  int true_in = 0;
  std::size_t n_ranks = 0;
  if (!(is >> rec.trial >> status_name >> code_name >> r.injection_attempts >>
        failed >> r.n_patterns >> r.n_failing_cells >> r.n_suspects >>
        true_in >> r.logic_baseline_rank >> r.chip.sample_index >>
        r.chip.defect_arc >> ds_hex >> sm_hex >> n_ranks)) {
    return false;
  }
  if (!parse_trial_status(status_name, &r.status) ||
      !parse_error_code(code_name, &r.error_code) ||
      !parse_double_hex(ds_hex, &r.chip.defect_size) ||
      !parse_double_hex(sm_hex, &r.chip.size_mean)) {
    return false;
  }
  r.failed_test = failed != 0;
  r.true_arc_in_suspects = true_in != 0;
  r.rank_of_true.resize(n_ranks);
  for (std::size_t i = 0; i < n_ranks; ++i) {
    if (!(is >> r.rank_of_true[i])) return false;
  }
  std::size_t n_extra = 0;
  if (!(is >> n_extra)) return false;
  r.extra_defects.resize(n_extra);
  for (std::size_t i = 0; i < n_extra; ++i) {
    std::string tok;
    if (!(is >> tok)) return false;
    const std::size_t colon = tok.find(':');
    if (colon == std::string::npos) return false;
    r.extra_defects[i].first = static_cast<netlist::ArcId>(
        std::strtoull(tok.c_str(), nullptr, 10));
    if (!parse_double_hex(std::string_view(tok).substr(colon + 1),
                          &r.extra_defects[i].second)) {
      return false;
    }
  }
  std::string trailing;
  if (is >> trailing) return false;  // extra fields = corrupt
  r.error_message = unescape_message(payload.substr(m_pos + 3));
  r.from_checkpoint = true;
  *out = std::move(rec);
  return true;
}

CheckpointLoad load_checkpoint(const std::string& path,
                               std::uint64_t fingerprint,
                               std::size_t n_trials) {
  CheckpointLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) return load;  // missing file: start fresh
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();

  // Header first.  A journal for a different experiment is an error; a
  // garbled header (e.g. a crash before the first fsync) just means an
  // empty journal.
  const std::size_t header_end = contents.find('\n');
  if (header_end == std::string::npos) return load;
  const std::string header = contents.substr(0, header_end + 1);
  if (header.rfind(kHeaderMagic, 0) != 0) return load;
  {
    std::istringstream hs(header.substr(kHeaderMagic.size()));
    std::string fp_hex;
    std::size_t journal_trials = 0;
    std::uint64_t fp = 0;
    if (!(hs >> fp_hex >> journal_trials) || !parse_hex64(fp_hex, &fp)) {
      return load;
    }
    if (fp != fingerprint || journal_trials != n_trials) {
      throw IoError(
          "checkpoint " + path +
          " was written by a different experiment configuration; refusing "
          "to resume (delete it or drop --resume to start over)");
    }
  }
  load.header_ok = true;
  load.valid_bytes = header.size();

  // Accept the longest valid prefix of records.  Only lines that end in
  // '\n' AND checksum-validate advance valid_bytes; the first bad line
  // (typically a partial tail write from a crash) stops the scan.
  std::size_t pos = header.size();
  while (pos < contents.size()) {
    const std::size_t eol = contents.find('\n', pos);
    if (eol == std::string::npos) break;  // unterminated tail
    const std::string line = contents.substr(pos, eol - pos);
    CheckpointRecord rec;
    if (!decode_checkpoint_record(line, &rec) || rec.trial >= n_trials) break;
    load.records.push_back(std::move(rec));
    pos = eol + 1;
    load.valid_bytes = pos;
  }
  return load;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   std::uint64_t fingerprint,
                                   std::size_t n_trials,
                                   std::uint64_t valid_bytes,
                                   bool write_header)
    : path_(path) {
  if (obs::fault_at("ckpt.open", 0)) {
    throw IoError("checkpoint open failed for " + path +
                  ": injected fault (SDDD_FAULTS)");
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) {
    throw IoError("checkpoint open failed for " + path + ": " +
                  std::strerror(errno));
  }
  // Drop any invalid tail (a record half-written at crash time) before
  // appending, so the file is all-valid-records again.
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw IoError("checkpoint truncate failed for " + path + ": " + err);
  }
  if (write_header) {
    write_all_fd(fd_, header_line(fingerprint, n_trials), path_);
    unsynced_ = 1;
  }
}

CheckpointWriter::~CheckpointWriter() {
  if (fd_ >= 0) {
    if (unsynced_ > 0) ::fsync(fd_);
    ::close(fd_);
  }
}

void CheckpointWriter::append(std::size_t trial, const TrialRecord& record) {
  const std::string line = encode_checkpoint_record(trial, record) + '\n';
  const std::lock_guard<std::mutex> lock(mu_);
  if (obs::fault_at("ckpt.write", trial)) {
    throw IoError("checkpoint append failed for " + path_ +
                  ": injected fault (SDDD_FAULTS)");
  }
  write_all_fd(fd_, line, path_);
  // fsync in batches: bounds the crash-loss window to kSyncEvery trials
  // without paying a disk flush per trial.
  if (++unsynced_ >= kSyncEvery) {
    ::fsync(fd_);
    unsynced_ = 0;
  }
}

void CheckpointWriter::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0 && unsynced_ > 0) {
    ::fsync(fd_);
    unsynced_ = 0;
  }
}

using obs::json_double;
using obs::json_string;

void write_experiment_json(const ExperimentResult& result,
                           const std::string& path) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"circuit\": " << json_string(result.circuit_name) << ",\n";
  // The experiment fingerprint, doubling as the run id every introspection
  // artifact (manifest, explain report) carries: equal run ids = same
  // deterministic computation.  A pure function of (circuit, config), so
  // it byte-matches across thread counts and checkpoint/resume cycles.
  os << "  \"run_id\": \""
     << hex64(experiment_fingerprint(result.circuit_name, result.config))
     << "\",\n";
  os << "  \"seed\": " << result.config.seed << ",\n";
  os << "  \"n_chips\": " << result.config.n_chips << ",\n";
  os << "  \"mc_samples\": " << result.config.mc_samples << ",\n";
  os << "  \"clk\": " << json_double(result.clk) << ",\n";
  // Deliberately no resumed_trials / timings here: they describe how the
  // run executed, not what it computed, and this file must byte-match
  // between an uninterrupted run and a kill+resume run.
  os << "  \"degraded\": " << (result.degraded ? "true" : "false") << ",\n";
  os << "  \"completed_trials\": " << result.completed_trials() << ",\n";
  os << "  \"quarantined_trials\": " << result.quarantined_trials() << ",\n";
  os << "  \"skipped_trials\": " << result.skipped_trials() << ",\n";
  os << "  \"diagnosable_trials\": " << result.diagnosable_trials() << ",\n";
  os << "  \"avg_suspects\": " << json_double(result.avg_suspects()) << ",\n";
  os << "  \"success\": {";
  bool first_m = true;
  for (const auto m : result.config.methods) {
    for (const int k : {1, 5}) {
      os << (first_m ? "\n" : ",\n") << "    \"m" << static_cast<int>(m)
         << "_top" << k << "\": " << json_double(result.success_rate(m, k));
      first_m = false;
    }
  }
  os << "\n  },\n";
  os << "  \"trials\": [\n";
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const TrialRecord& t = result.trials[i];
    os << "    {\"trial\": " << i << ", \"status\": \""
       << trial_status_name(t.status) << "\"";
    if (t.status == TrialStatus::kQuarantined) {
      os << ", \"error_code\": \"" << error_code_name(t.error_code)
         << "\", \"error\": " << json_string(t.error_message);
    }
    os << ", \"attempts\": " << t.injection_attempts
       << ", \"sample\": " << t.chip.sample_index
       << ", \"arc\": " << t.chip.defect_arc
       << ", \"size\": " << json_double(t.chip.defect_size)
       << ", \"suspects\": " << t.n_suspects << ", \"ranks\": [";
    for (std::size_t m = 0; m < t.rank_of_true.size(); ++m) {
      os << (m == 0 ? "" : ", ") << t.rank_of_true[m];
    }
    os << "], \"logic_rank\": " << t.logic_baseline_rank << "}"
       << (i + 1 < result.trials.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  obs::atomic_write_file_or_throw(path, os.str());
}

}  // namespace sddd::eval
