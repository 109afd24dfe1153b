// ledger.h - The run ledger: one checksummed JSONL record per run.
//
// Every `sddd_cli diagnose` / `bench_*` invocation can append ONE record
// describing what ran and what it cost: the 16-hex run_id (the same
// experiment fingerprint stamped into the result JSON, checkpoint journal
// and manifest), git SHA, thread count, per-phase wall seconds, a full
// counter snapshot and the peak RSS.  The ledger is the durable,
// append-only index that `sddd_cli report` diffs and that the perf
// regression sentry reads.
//
// Line format (one record per line, no trailing spaces):
//
//   {"crc":"<16 hex>","v":1,"run_id":...,...}
//
// The crc is the FNV-1a-64 of every byte AFTER the `"crc":"....",` prefix
// (i.e. of the payload `"v":1,...}`), so a reader can verify integrity
// with plain string operations before parsing.  Torn or corrupt lines --
// e.g. the tail of a file cut by a crash mid-append -- fail the checksum
// and are skipped with a warning rather than poisoning the whole ledger,
// mirroring the checkpoint journal's longest-valid-prefix policy.
//
// Determinism note: `unix_ms` and every *_seconds / rss field are
// wall-clock measurements and are deliberately excluded from any
// byte-identity contract; the schedule-independent identity of a run is
// its run_id + counters.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sddd::obs {

/// One run, as remembered by the ledger.  Absent string fields stay empty;
/// absent numeric fields stay 0.
struct LedgerRecord {
  int version = 1;
  std::string run_id;    ///< 16-hex fingerprint (experiment or invocation).
  std::string tool;      ///< "diagnose", "bench_table1", "bench_score", ...
  std::string circuit;   ///< circuit name ("s1196") or comma list for benches
  std::string git_sha;   ///< from SDDD_GIT_SHA / --git-sha; may be empty
  std::uint64_t seed = 0;
  std::uint64_t threads = 0;
  std::uint64_t mc_samples = 0;
  std::uint64_t n_chips = 0;
  /// Bench shape tag ("serve", ...).  Empty for diagnose / table1-style
  /// records; when empty the three serve fields below are omitted from the
  /// encoded line entirely, so pre-serve ledgers re-encode byte-identically.
  std::string bench;
  std::uint64_t clients = 0;  ///< peak concurrent load-gen clients (serve)
  std::uint64_t batch = 0;    ///< chips per request frame (serve)
  double wall_seconds = 0.0;
  /// Per-phase wall seconds ("setup_s", "calibration_s", "trials_s", ...).
  std::map<std::string, double> phases;
  /// Counter snapshot (deterministic names; values like *_ns are wall
  /// measurements and only meaningful as run-to-run deltas).
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t peak_rss_kb = 0;  ///< VmHWM at append time; 0 off-Linux.
  std::string manifest_fnv;       ///< hex64 of manifest.json bytes, or "".
  std::string result_fnv;         ///< hex64 of the result JSON bytes, or "".
  std::string result_path;        ///< where the result JSON landed, or "".
  std::uint64_t unix_ms = 0;      ///< wall clock at append; NOT compared.
};

/// Lower-case 16-hex rendering of `v`.
std::string ledger_hex64(std::uint64_t v);

/// Renders `rec` as one ledger line (no trailing newline), checksum filled.
std::string encode_ledger_record(const LedgerRecord& rec);

/// Parses and checksum-verifies one line.  Returns false (and leaves `out`
/// untouched) on any malformed or corrupt input.
bool decode_ledger_record(std::string_view line, LedgerRecord* out);

/// Appends `rec` as one line with O_APPEND + fsync so concurrent runs
/// interleave whole lines and a crash can tear at most the final line.
/// Returns false on I/O failure (logged, never throws).
bool append_ledger_record(const std::string& path, const LedgerRecord& rec);

struct LedgerFile {
  std::vector<LedgerRecord> records;  ///< valid records, file order
  std::size_t skipped_lines = 0;      ///< malformed / checksum-failed lines
};

/// Loads every valid record; malformed lines are counted and warned about,
/// never fatal.  A missing file is an empty ledger.
LedgerFile load_ledger(const std::string& path);

/// The last valid record, or nullopt for an empty/missing ledger.
std::optional<LedgerRecord> ledger_tail(const std::string& path);

/// Peak resident set (VmHWM) in kB from /proc/self/status; 0 when the
/// field is unavailable (non-Linux).
std::uint64_t read_peak_rss_kb();

/// A fresh 16-hex id for one tool INVOCATION (hashes tool, git sha, pid
/// and the wall clock).  Benchmarks use this instead of the experiment
/// fingerprint: two bench runs with equal configs are distinct
/// measurements that must both enter the history, while re-appending the
/// SAME stale artifact (equal run_id) is refused by the tooling.
std::string new_invocation_run_id(std::string_view tool,
                                  std::string_view git_sha);

// ---------------------------------------------------------------------------
// Run-to-run diff (the engine behind `sddd_cli report`).

struct LedgerDiff {
  struct PhaseRow {
    std::string name;
    double a = 0.0, b = 0.0;  ///< seconds in run A / run B
  };
  struct CounterRow {
    std::string name;
    std::uint64_t a = 0, b = 0;
  };
  std::string run_a, run_b;  ///< run_ids
  std::string tool_a, tool_b;
  std::string circuit_a, circuit_b;
  std::string sha_a, sha_b;
  std::string bench_a, bench_b;  ///< bench shape tags; "" = non-bench run
  std::uint64_t clients_a = 0, clients_b = 0;
  std::uint64_t batch_a = 0, batch_b = 0;
  std::uint64_t threads_a = 0, threads_b = 0;
  double wall_a = 0.0, wall_b = 0.0;
  std::uint64_t rss_a = 0, rss_b = 0;
  std::vector<PhaseRow> phases;      ///< union of phase keys, sorted
  std::vector<CounterRow> counters;  ///< union of counter names, sorted
  /// "identical" when both runs carry a result hash for the same run_id
  /// and the hashes match (deterministic result JSON => identical ranks);
  /// "DIFFERS" when they do not; "n/a (different run_ids)" across
  /// experiments; "unknown" when either run has no result hash.
  std::string rank_stability;
};

LedgerDiff diff_ledger_records(const LedgerRecord& a, const LedgerRecord& b);

/// Human-readable comparison: wall/phase deltas with % change, counters
/// that moved, rank-stability verdict.
std::string ledger_diff_to_text(const LedgerDiff& d);

/// The same comparison as machine-readable JSON.
std::string ledger_diff_to_json(const LedgerDiff& d);

}  // namespace sddd::obs
