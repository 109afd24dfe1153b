// table1.h - Driver regenerating the paper's Table I.
//
// For each of the eight benchmark circuits (or a subset), builds the
// circuit (ISCAS stand-in via the synthetic generator, or a real .bench
// file when provided), runs the injection + diagnosis experiment, and
// formats the measured success rates next to the paper's reported numbers.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "eval/experiment.h"

namespace sddd::eval {

struct Table1Config {
  /// Circuits to run; empty = all eight of the paper.
  std::vector<std::string> circuits;
  /// Gate-count scale of the synthetic stand-ins (1.0 = published size).
  double scale = 1.0;
  /// Directory with real ISCAS .bench files; when a file named
  /// "<circuit>.bench" exists there it is used instead of the stand-in.
  std::optional<std::filesystem::path> bench_dir;
  /// Base experiment configuration (per-circuit K values come from the
  /// catalog; methods default to I/II/III/rev).
  ExperimentConfig base;
  /// Run the static-analysis preflight (netlist + statistical-model rule
  /// packs) on every circuit before its experiment; error-severity
  /// findings abort the run with the report text.
  bool lint_preflight = false;
};

struct Table1Cell {
  std::string circuit;
  int k = 0;
  double sim1_pct = 0.0;
  double sim2_pct = 0.0;
  double sim3_pct = 0.0;
  double rev_pct = 0.0;
  /// Traditional logic-domain baseline (gross-delay dictionary).
  double logic_pct = 0.0;
  /// Paper reference, when this (circuit, K) row exists in Table I.
  std::optional<double> paper_sim1;
  std::optional<double> paper_sim2;
  std::optional<double> paper_rev;
};

struct Table1Result {
  std::vector<Table1Cell> cells;
  std::vector<ExperimentResult> experiments;  ///< one per circuit

  /// Formats the measured-vs-paper table as fixed-width ASCII.
  std::string to_string() const;

  /// CSV (one row per cell) for EXPERIMENTS.md post-processing.
  std::string to_csv() const;
};

/// Runs the Table I reproduction.
Table1Result run_table1(const Table1Config& config);

/// The one Table-I JSON writer (bench_table1's BENCH_table1.json, an
/// operator artifact): `threads`, `git_sha`, `run_id` and the per-circuit
/// `phases` object are stamped the same way in every run.  `threads` is
/// read from runtime::thread_count() at call time.  `run_id` is the
/// per-invocation 16-hex id (obs/ledger.h) that joins the file to the
/// run's ledger record and flight recorder.
void write_table1_json(std::ostream& os, const Table1Config& config,
                       const Table1Result& result, double total_seconds,
                       const std::string& git_sha,
                       const std::string& run_id = "");

/// write_table1_json into `path`; false (with a warn log) when the file
/// cannot be opened.
bool write_table1_json_file(const std::string& path,
                            const Table1Config& config,
                            const Table1Result& result, double total_seconds,
                            const std::string& git_sha,
                            const std::string& run_id = "");

}  // namespace sddd::eval
