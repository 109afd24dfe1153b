// experiment.h - Statistical defect injection + diagnosis experiment
// (Section I).
//
// Reproduces the paper's measurement loop: produce N circuit instances with
// different delay configurations, inject one delay defect of random
// location and size per instance, generate diagnostic patterns for the
// injected fault's longest paths (Section H-4), observe the behavior
// matrix, run every diagnosis method, and score top-K success.
//
// Chips that do not fail the test (the defect is too small / sits on too
// short a path - exactly the Figure 1 escape phenomenon) are redrawn up to
// a retry budget; the number of redraws is recorded as the injection yield
// statistic.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "atpg/diag_patterns.h"
#include "defect/injector.h"
#include "diagnosis/diagnoser.h"
#include "netlist/netlist.h"
#include "obs/error.h"
#include "timing/celllib.h"

namespace sddd::eval {

/// Which injected (site, chip) draws the experiment accepts.
enum class SiteBias {
  /// Gate each draw on detectability: the site's own diagnostic patterns
  /// must launch a nominal delay through the site within a window around
  /// clk ([clk - lo, clk + hi] in defect-mean units).  This is the
  /// population an at-speed test can actually fail and resolve: a 0.5-1.0
  /// cell-delay defect on a short path never shows at the tester (the
  /// paper's Figure 1 escape argument), and a site already far beyond clk
  /// fails with or without the defect.  Default; what Table I effectively
  /// measures.
  kDetectable,
  /// No detectability gate; only the "chip must fail" redraw applies.
  /// Slower (low injection yield) and the accepted failures are deep-tail
  /// events the dictionary needs many more samples to resolve.
  kUniform,
};

struct ExperimentConfig {
  std::size_t mc_samples = 400;      ///< dictionary Monte-Carlo population
  /// Size of the manufactured-chip population (the instance field).  0 =
  /// same as mc_samples.  Kept separate so ablations can vary dictionary
  /// fidelity while diagnosing the *same* chips.
  std::size_t instance_samples = 0;
  std::size_t n_chips = 20;          ///< N failing chips to diagnose
  SiteBias site_bias = SiteBias::kDetectable;
  /// Detectability window around clk, in units of the mean defect size.
  double detectable_lambda_lo = 2.0;
  double detectable_lambda_hi = 1.5;
  /// Defects per chip.  1 = the paper's single-defect model (Definition
  /// D.10).  >1 relaxes the assumption (future work #3): extra defects of
  /// random location/size are added to the same chip while the diagnosis
  /// still assumes a single defect; success counts a hit when ANY injected
  /// site ranks within the top K.
  std::size_t n_defects = 1;
  std::vector<diagnosis::Method> methods = {
      diagnosis::Method::kSimI, diagnosis::Method::kSimII,
      diagnosis::Method::kSimIII, diagnosis::Method::kRev};
  /// clk calibration: for calibration_sites random fault sites, measure
  /// the nominal delay their own diagnostic patterns launch through the
  /// site; clk = this quantile of those per-site achievable delays.  That
  /// places the rated period where a typical testable site has small
  /// positive slack, so a 0.5-1.0 cell-delay defect is observable - the
  /// regime Table I operates in.  (Static Delta(C) would be false-path
  /// pessimistic: no chip, defective or not, ever reaches it; and the max
  /// over all sites would leave typical sites with several defect-sizes of
  /// slack, making every accepted failure an unresolvable tail event.)
  double clk_site_quantile = 0.7;
  std::size_t calibration_sites = 16;  ///< random sites in the calibration
  double global_weight = 0.03;       ///< inter-die correlation weight
  double defect_mean_lo = 0.5;       ///< defect mean, fraction of cell delay
  double defect_mean_hi = 1.0;
  double defect_three_sigma = 0.5;   ///< 3-sigma as fraction of the mean
  atpg::DiagnosticPatternConfig pattern_config;
  std::size_t max_suspects = 300;
  /// Match phi against the paper-literal signature S_crt = E - M instead
  /// of the default total failure probability E_crt (see DiagnoserConfig).
  bool match_on_signature = false;
  /// Ignored: collapse is always on.  Kept only because perfbench reads it.
  bool collapse_unobservable = false;
  /// Also run the traditional logic-domain baseline (gross-delay 0/1
  /// dictionary, Hamming matching) on every chip, for the paper's
  /// logic-vs-delay-diagnosis contrast.
  bool include_logic_baseline = true;
  std::size_t max_injection_retries = 120;
  timing::CellLibraryConfig library;
  std::uint64_t seed = 2003;

  // --- Resilience knobs (see DESIGN.md section 10) ---
  /// Trial journal path; empty = no journaling.  Finished trials are
  /// appended (crash-safe, checksummed) as they complete.
  std::string checkpoint_path;
  /// With a checkpoint_path: load the journal first and re-run only the
  /// trials it does not cover.  Trial randomness derives from (seed, trial
  /// index), so the resumed result is bit-identical to an uninterrupted
  /// run.  Without resume an existing journal is overwritten.
  bool resume = false;
  /// Soft wall-clock budget in seconds for the trial loop; <= 0 = none.
  /// Cooperative: trials already running unwind at their next poll point,
  /// un-started trials are marked kSkipped, and the result reports
  /// degraded=true instead of the run failing.  Skipped trials are not
  /// journaled, so a later --resume finishes them.
  double deadline_s = 0.0;
};

/// How one trial ended.  `kDiagnosed` <=> TrialRecord::failed_test; the
/// other states explain *why* a trial contributes nothing to the success
/// rates (whose denominator is diagnosable_trials(), i.e. kDiagnosed
/// only).
enum class TrialStatus : int {
  /// The chip never observably failed within the retry budget (the paper's
  /// Figure 1 escape phenomenon) - a valid measurement of zero.
  kNotFailing = 0,
  /// Diagnosis ran to completion; ranks are meaningful.
  kDiagnosed = 1,
  /// The trial threw; it is quarantined with the error recorded and the
  /// rest of the experiment unaffected.
  kQuarantined = 2,
  /// Skipped by the deadline (or a hard cancel) before producing a result;
  /// re-run on resume.
  kSkipped = 3,
};

/// Stable lower-case name ("not_failing", "diagnosed", "quarantined",
/// "skipped") used in journals and result JSON.
std::string_view trial_status_name(TrialStatus status);

/// Outcome of diagnosing one failing chip.
struct TrialRecord {
  defect::InjectedChip chip;  ///< the primary (pattern-targeted) defect
  /// Additional defects on the chip when config.n_defects > 1.
  std::vector<std::pair<netlist::ArcId, double>> extra_defects;
  std::size_t injection_attempts = 0;  ///< redraws until the chip failed
  bool failed_test = false;            ///< false = never failed, skipped
  std::size_t n_patterns = 0;
  std::size_t n_failing_cells = 0;
  std::size_t n_suspects = 0;
  bool true_arc_in_suspects = false;
  /// Rank (0-based) of the injected arc per method; -1 = not in suspects.
  std::vector<int> rank_of_true;
  /// Rank under the gross-delay logic baseline; -1 = absent or disabled.
  int logic_baseline_rank = -1;
  /// How the trial ended (kept in sync with failed_test; see TrialStatus).
  TrialStatus status = TrialStatus::kNotFailing;
  /// Why it was quarantined (meaningful when status == kQuarantined).
  ErrorCode error_code = ErrorCode::kInternal;
  std::string error_message;
  /// True when this record was replayed from a checkpoint journal rather
  /// than recomputed in this run.
  bool from_checkpoint = false;
};

/// Where one experiment's time went.  Wall-clock splits partition
/// wall_seconds; the *_cpu_seconds figures come from metric counter deltas
/// (obs::MetricsSnapshot) and sum across threads, so a perfectly scaled
/// 4-thread phase reports ~4x its wall share.  The counters echo the work
/// volume behind those times (the Table-I JSON's "phases" object, written
/// by write_table1_json).
struct PhaseBreakdown {
  double setup_seconds = 0.0;        ///< model / field / simulator build
  double calibration_seconds = 0.0;  ///< clk calibration sweep
  double trials_seconds = 0.0;       ///< injection + diagnosis loop

  double atpg_cpu_seconds = 0.0;          ///< diagnostic pattern generation
  /// The trial loop's detectability gate (outside atpg_cpu_seconds), and
  /// the part of atpg_cpu_seconds spent on draws that were accepted and
  /// diagnosed; the rest went to discarded draws.
  double atpg_gate_cpu_seconds = 0.0;
  double atpg_accepted_cpu_seconds = 0.0;
  double mc_observe_cpu_seconds = 0.0;    ///< chip behavior observation
  double dict_build_cpu_seconds = 0.0;    ///< dictionary M + E columns
  double suspect_extract_cpu_seconds = 0.0;
  double score_cpu_seconds = 0.0;         ///< per-pattern phi scoring
  /// Split of score_cpu_seconds: column acquisition vs packed phi
  /// evaluation.
  double score_column_build_cpu_seconds = 0.0;
  double score_phi_cpu_seconds = 0.0;

  std::uint64_t mc_samples = 0;
  std::uint64_t dict_columns_built = 0;
  std::uint64_t phi_evals = 0;
  std::uint64_t pool_tasks = 0;
  /// SignatureCache traffic: column lookups served cached / built fresh,
  /// and resident column bytes.
  std::uint64_t sig_cache_hits = 0;
  std::uint64_t sig_cache_misses = 0;
  std::uint64_t sig_cache_bytes = 0;

  /// PODEM calls and their CPU seconds by outcome, in kPodemOutcomes order
  /// (atpg.podem.<outcome>[_ns]; see atpg/podem.h), and what the
  /// ConflictCache learned, in kConflictCounters order (atpg.conflict.*:
  /// cores, the bytes the cache grew by and the abort memo's share of
  /// them).  A core learned by one thread prunes calls on another, and an
  /// abort recorded by one answers repeats on another, so these depend on
  /// the thread schedule: they are reported here and in the metrics, never
  /// in the result JSON or the journal.  pruned, repeat and refuted calls
  /// were answered unsearched.
  static constexpr const char* kPodemOutcomes[] = {
      "sat", "exhausted", "aborted", "dead_end", "pruned", "repeat", "refuted"};
  static constexpr const char* kConflictCounters[] = {"cores", "bytes",
                                                      "memo_bytes"};
  struct PodemOutcome {
    std::uint64_t calls = 0;
    double cpu_seconds = 0.0;
  };
  std::array<PodemOutcome, std::size(kPodemOutcomes)> podem{};
  std::array<std::uint64_t, std::size(kConflictCounters)> conflict{};

  /// Stage counters, in kStageCounters order as (metric name, count): the
  /// injection draws and why each was rejected, then the ATPG stages and
  /// the TransitionGraphs built.  They count work the draws alone decide,
  /// so unlike the PODEM outcomes they match at any thread count and with
  /// or without the conflict cache.  They stay out of TrialRecord and the
  /// journal: a resumed run counts only the trials it re-ran.
  static constexpr const char* kStageCounters[] = {
      "defect.draws",          "defect.reject_empty",
      "defect.reject_lo",      "defect.reject_hi",
      "defect.reject_nofail",  "defect.reject_nocontrib",
      "atpg.paths.enumerated", "atpg.paths.tried",
      "atpg.fill.tried",       "atpg.fill.activated",
      "atpg.site.tries",       "atpg.site.survivors",
      "atpg.gate.calls",       "atpg.gate.zero",
      "paths.tg.builds"};
  std::vector<std::pair<std::string, std::uint64_t>> stages;
};

struct ExperimentResult {
  ExperimentConfig config;
  std::string circuit_name;
  double clk = 0.0;
  /// Wall-clock cost of the whole experiment (calibration + trials), as
  /// reported per circuit in the Table-I JSON.
  double wall_seconds = 0.0;
  /// Per-phase attribution of that time (see PhaseBreakdown).
  PhaseBreakdown phases;
  std::vector<TrialRecord> trials;
  /// True when the deadline expired before every trial finished: the
  /// numbers below are computed over fewer trials than configured.
  bool degraded = false;
  /// Trials replayed from the checkpoint journal instead of recomputed.
  std::size_t resumed_trials = 0;

  /// Paper accuracy metric: fraction of diagnosable trials whose injected
  /// arc ranks within the top K under `m`.  The denominator is
  /// diagnosable_trials() - quarantined and skipped trials are excluded
  /// explicitly, never silently counted as misses.
  double success_rate(diagnosis::Method m, int k) const;

  /// Same metric for the traditional logic baseline (0 when disabled).
  double logic_baseline_success_rate(int k) const;

  /// Average |S| over diagnosable trials (the paper reports 100-600).
  double avg_suspects() const;

  /// Total injection attempts / diagnosable trials.
  double avg_injection_attempts() const;

  std::size_t diagnosable_trials() const;

  /// Trials quarantined by a per-trial failure (status == kQuarantined).
  std::size_t quarantined_trials() const;
  /// Trials skipped by the deadline / cancellation (status == kSkipped).
  std::size_t skipped_trials() const;
  /// Trials that produced a result: everything but kSkipped.
  std::size_t completed_trials() const;
};

/// Runs the full experiment on a frozen combinational netlist.
///
/// Trials run in parallel over the runtime thread pool (`--threads` /
/// SDDD_THREADS; see src/runtime/parallel_for.h).  Every trial derives its
/// randomness purely from (config.seed, trial index) and fills its own
/// slot of ExperimentResult::trials, so results are bit-identical for any
/// thread count.
ExperimentResult run_diagnosis_experiment(const netlist::Netlist& nl,
                                          const ExperimentConfig& config);

}  // namespace sddd::eval
