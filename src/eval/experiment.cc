#include "eval/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "diagnosis/behavior.h"
#include "diagnosis/logic_baseline.h"
#include "eval/checkpoint.h"
#include "eval/explain.h"
#include "eval/setup.h"
#include "introspect/explain.h"
#include "netlist/levelize.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "obs/faults.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "runtime/cancel.h"
#include "runtime/parallel_for.h"
#include "stats/rv.h"
#include "stats/sample_vector.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"

namespace sddd::eval {

using defect::SegmentDefectModel;
using diagnosis::BehaviorMatrix;
using diagnosis::Diagnoser;
using diagnosis::Method;
using netlist::Netlist;
using stats::Rng;

double ExperimentResult::success_rate(Method m, int k) const {
  const auto it = std::find(config.methods.begin(), config.methods.end(), m);
  if (it == config.methods.end()) {
    throw std::invalid_argument("success_rate: method not measured");
  }
  const auto mi = static_cast<std::size_t>(it - config.methods.begin());
  std::size_t total = 0;
  std::size_t hits = 0;
  for (const TrialRecord& t : trials) {
    if (!t.failed_test) continue;
    ++total;
    const int rank = t.rank_of_true[mi];
    if (rank >= 0 && rank < k) ++hits;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

double ExperimentResult::avg_suspects() const {
  std::size_t total = 0;
  std::size_t sum = 0;
  for (const TrialRecord& t : trials) {
    if (!t.failed_test) continue;
    ++total;
    sum += t.n_suspects;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(total);
}

double ExperimentResult::avg_injection_attempts() const {
  std::size_t total = 0;
  std::size_t sum = 0;
  for (const TrialRecord& t : trials) {
    if (!t.failed_test) continue;
    ++total;
    sum += t.injection_attempts;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(total);
}

double ExperimentResult::logic_baseline_success_rate(int k) const {
  std::size_t total = 0;
  std::size_t hits = 0;
  for (const TrialRecord& t : trials) {
    if (!t.failed_test) continue;
    ++total;
    if (t.logic_baseline_rank >= 0 && t.logic_baseline_rank < k) ++hits;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

std::size_t ExperimentResult::diagnosable_trials() const {
  std::size_t total = 0;
  for (const TrialRecord& t : trials) total += t.failed_test ? 1U : 0U;
  return total;
}

std::string_view trial_status_name(TrialStatus status) {
  switch (status) {
    case TrialStatus::kNotFailing: return "not_failing";
    case TrialStatus::kDiagnosed: return "diagnosed";
    case TrialStatus::kQuarantined: return "quarantined";
    case TrialStatus::kSkipped: return "skipped";
  }
  return "unknown";
}

std::size_t ExperimentResult::quarantined_trials() const {
  std::size_t total = 0;
  for (const TrialRecord& t : trials) {
    total += t.status == TrialStatus::kQuarantined ? 1U : 0U;
  }
  return total;
}

std::size_t ExperimentResult::skipped_trials() const {
  std::size_t total = 0;
  for (const TrialRecord& t : trials) {
    total += t.status == TrialStatus::kSkipped ? 1U : 0U;
  }
  return total;
}

std::size_t ExperimentResult::completed_trials() const {
  return trials.size() - skipped_trials();
}

namespace {

/// Rank (0-based position in the best-first order) of `arc` in the result
/// under method `m`; -1 = absent from the suspect set.
int rank_of(const diagnosis::DiagnosisResult& result, Method m,
            netlist::ArcId arc) {
  const auto ranked = result.ranked(m);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].arc == arc) return static_cast<int>(i);
  }
  return -1;
}

// CPU attribution for the two phases whose work happens at experiment call
// sites (pattern generation and chip observation); the dictionary and
// diagnoser record their own ns counters.
obs::Counter& atpg_gen_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("atpg.gen_ns");
  return c;
}

/// The trial loop's ATPG time by draw outcome: the detectability gate
/// (atpg.gate_ns, outside atpg.gen_ns), and the pattern generation of the
/// draws that were accepted and diagnosed (atpg.accepted_ns, part of
/// atpg.gen_ns; the rest of atpg.gen_ns went to discarded draws and the
/// clk calibration).
obs::Counter& atpg_gate_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("atpg.gate_ns");
  return c;
}

obs::Counter& atpg_accepted_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("atpg.accepted_ns");
  return c;
}

/// Per-draw outcomes of the injection loop (defect.*): every draw, and the
/// draws rejected for an empty pattern set, a detectability verdict below
/// or above the window, no observed failure, or a failure the defect does
/// not cause.  The accepted draws are draws minus the rejections.
struct DrawCounters {
  obs::Counter& draws;
  obs::Counter& reject_empty;
  obs::Counter& reject_lo;
  obs::Counter& reject_hi;
  obs::Counter& reject_nofail;
  obs::Counter& reject_nocontrib;
};

DrawCounters& draw_counters() {
  static DrawCounters c = [] {
    auto& reg = obs::MetricsRegistry::instance();
    return DrawCounters{reg.register_counter("defect.draws"),
                        reg.register_counter("defect.reject_empty"),
                        reg.register_counter("defect.reject_lo"),
                        reg.register_counter("defect.reject_hi"),
                        reg.register_counter("defect.reject_nofail"),
                        reg.register_counter("defect.reject_nocontrib")};
  }();
  return c;
}

obs::Counter& mc_observe_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("mc.observe_ns");
  return c;
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs::now_ns() - t0_ns) * 1e-9;
}

// Resilience counters: how many trials were quarantined by a failure, and
// how many were replayed from a checkpoint journal instead of recomputed.
obs::Counter& trial_quarantined_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("trial.quarantined");
  return c;
}

obs::Counter& run_resumed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("run.resumed_trials");
  return c;
}

// Per-trial wall-clock latency shape; the p50/p95/p99 summaries land in
// the metrics JSON for `sddd_cli report` to compare.  Wall-clock valued,
// so deliberately NOT part of any byte-identity contract.
obs::Histogram& trial_ms_histogram() {
  static constexpr double kBoundsMs[] = {1,    2.5,   5,     10,    25,
                                         50,   100,   250,   500,   1000,
                                         2500, 5000,  10000, 30000};
  static obs::Histogram& h = obs::MetricsRegistry::instance()
                                 .register_histogram("exp.trial_ms",
                                                     kBoundsMs);
  return h;
}

}  // namespace

ExperimentSetup::ExperimentSetup(const Netlist& nl_in,
                                 const ExperimentConfig& cfg,
                                 std::optional<double> known_clk)
    : nl(nl_in),
      config(cfg),
      t0(obs::now_ns()),
      lev(nl_in),
      lib(cfg.library),
      model(nl_in, lib),
      logic_sim(nl_in, lev),
      instance_samples(cfg.instance_samples != 0 ? cfg.instance_samples
                                                 : cfg.mc_samples),
      dict_field(model, cfg.mc_samples, cfg.global_weight,
                 cfg.seed ^ 0xd1c7ULL),
      inst_field(model, instance_samples, cfg.global_weight,
                 cfg.seed ^ 0xc41bULL),
      dict_sim(dict_field, lev),
      inst_sim(inst_field, lev),
      setup_seconds(seconds_since(t0)),
      size_model(model.mean_cell_delay(), cfg.defect_mean_lo,
                 cfg.defect_mean_hi, cfg.defect_three_sigma,
                 cfg.seed ^ 0x5e1fULL),
      location_model(SegmentDefectModel::uniform_single(
          nl_in, stats::RandomVariable::Normal(
                     size_model.marginal_mean(),
                     size_model.marginal_mean() / 6.0))),
      injector(location_model, size_model),
      conflicts(nl_in) {
  if (known_clk.has_value()) {
    clk = *known_clk;
  } else {
    // clk calibration: per-site achievable delays (see experiment.h).
    const std::uint64_t cal_t0 = obs::now_ns();
    SDDD_SPAN(cal_span, "exp.calibration");
    cal_span.arg("sites", static_cast<std::int64_t>(config.calibration_sites));
    Rng cal_rng(config.seed, 0xca1bULL);
    std::vector<double> site_delays;
    for (std::size_t s = 0; s < config.calibration_sites; ++s) {
      const auto site = static_cast<netlist::ArcId>(
          cal_rng.below(static_cast<std::uint32_t>(nl.arc_count())));
      const auto cal_patterns = [&] {
        const obs::ScopedNsTimer atpg_timer(atpg_gen_ns_counter());
        return atpg::generate_diagnostic_patterns(
            model, lev, site, config.pattern_config, cal_rng, &conflicts);
      }();
      const double d =
          atpg::site_best_nominal_delay(model, lev, cal_patterns, site);
      if (d > 0.0) site_delays.push_back(d);
    }
    if (site_delays.empty()) {
      throw ModelError(nl.name() + ": no calibration site was testable");
    }
    clk = stats::SampleVector(std::move(site_delays))
              .quantile(config.clk_site_quantile);
    calibration_seconds = seconds_since(cal_t0);
    SDDD_LOG_DEBUG("%s: clk calibrated to %.4f (%zu sites)",
                   nl.name().c_str(), clk, config.calibration_sites);
  }
  detect_lo = clk - config.detectable_lambda_lo * size_model.marginal_mean();
  detect_hi = clk + config.detectable_lambda_hi * size_model.marginal_mean();
}

Rng ExperimentSetup::trial_rng(std::size_t trial) const {
  return Rng(config.seed, 0xe4a1ULL).split(trial + 1);
}

namespace {

/// What the explanation engine needs from a trial beyond its TrialRecord:
/// the pattern set, the observed behavior and the full diagnosis result
/// (with the captured phi matrix when the diagnoser was configured for it).
struct TrialArtifacts {
  std::vector<logicsim::PatternPair> patterns;
  BehaviorMatrix B{0, 0};
  diagnosis::DiagnosisResult diagnosis;
};

/// The measurement body of one trial.  Trial randomness derives purely
/// from (config.seed, trial index), so calling this again for the same
/// trial - in the experiment loop, on resume, or from explain_trial() -
/// reproduces the identical record bit for bit.  Failures propagate;
/// classification into TrialStatus is the caller's job.
void run_trial_body(const ExperimentSetup& S, const Diagnoser& diagnoser,
                    const diagnosis::LogicBaselineDiagnoser* logic_baseline,
                    std::size_t trial, TrialRecord& record,
                    TrialArtifacts* artifacts) {
  SDDD_SPAN(trial_span, "exp.trial");
  trial_span.arg("trial", static_cast<std::int64_t>(trial));
  const Netlist& nl = S.nl;
  const ExperimentConfig& config = S.config;
  Rng trial_rng = S.trial_rng(trial);

  // Redraw (site, size, chip) until the chip observably fails.
  std::vector<logicsim::PatternPair> patterns;
  BehaviorMatrix B(nl.outputs().size(), 0);
  DrawCounters& draw = draw_counters();
  for (std::size_t attempt = 0; attempt < config.max_injection_retries;
       ++attempt) {
    ++record.injection_attempts;
    draw.draws.add(1);
    record.chip = S.injector.draw(S.instance_samples, trial_rng);
    const std::uint64_t atpg_t0 = obs::now_ns();
    patterns = atpg::generate_diagnostic_patterns(
        S.model, S.lev, record.chip.defect_arc, config.pattern_config,
        trial_rng, &S.conflicts);
    const std::uint64_t atpg_ns = obs::now_ns() - atpg_t0;
    atpg_gen_ns_counter().add(atpg_ns);
    if (patterns.empty()) {
      draw.reject_empty.add(1);
      continue;
    }
    if (config.site_bias == SiteBias::kDetectable) {
      const double d = [&] {
        const obs::ScopedNsTimer gate_timer(atpg_gate_ns_counter());
        return atpg::site_best_nominal_delay(S.model, S.lev, patterns,
                                             record.chip.defect_arc);
      }();
      if (d < S.detect_lo) {
        draw.reject_lo.add(1);
        continue;
      }
      if (d > S.detect_hi) {
        draw.reject_hi.add(1);
        continue;
      }
    }
    // Assemble the chip's defect list: the primary (pattern-targeted)
    // one, plus extras when the single-defect assumption is relaxed.
    record.extra_defects.clear();
    std::vector<std::pair<netlist::ArcId, double>> defects = {
        {record.chip.defect_arc, record.chip.defect_size}};
    for (std::size_t extra = 1; extra < config.n_defects; ++extra) {
      const auto other = S.injector.draw(S.instance_samples, trial_rng);
      record.extra_defects.emplace_back(other.defect_arc, other.defect_size);
      defects.emplace_back(other.defect_arc, other.defect_size);
    }
    {
      const obs::ScopedNsTimer observe_timer(mc_observe_ns_counter());
      B = diagnosis::observe_behavior_multi(S.inst_sim, S.logic_sim, S.lev,
                                            patterns,
                                            record.chip.sample_index,
                                            defects, S.clk);
    }
    if (!B.any_failure()) {
      draw.reject_nofail.add(1);
      continue;
    }
    // The chip must fail *because of* the defect: a slow-but-defect-free
    // instance that fails anyway is a process outlier, not a delay
    // defect, and its behavior carries no information about the injected
    // site.  Require at least one failing cell that passes without the
    // defect.
    const obs::ScopedNsTimer observe_timer(mc_observe_ns_counter());
    const BehaviorMatrix B0 = diagnosis::observe_behavior(
        S.inst_sim, S.logic_sim, S.lev, patterns, record.chip.sample_index,
        std::nullopt, S.clk);
    bool defect_contributes = false;
    for (std::size_t i = 0; i < B.output_count() && !defect_contributes;
         ++i) {
      for (std::size_t jj = 0; jj < B.pattern_count(); ++jj) {
        if (B.at(i, jj) && !B0.at(i, jj)) {
          defect_contributes = true;
          break;
        }
      }
    }
    if (defect_contributes) {
      record.failed_test = true;
      atpg_accepted_ns_counter().add(atpg_ns);
      break;
    }
    draw.reject_nocontrib.add(1);
  }
  if (!record.failed_test) return;

  record.n_patterns = patterns.size();
  record.n_failing_cells = B.failure_count();
  auto diag = diagnoser.diagnose(patterns, B, config.methods, S.clk);
  record.n_suspects = diag.suspects.size();
  // Under multi-defect injection a hit on ANY injected site counts
  // (locating one real defect is actionable for failure analysis).
  std::vector<netlist::ArcId> true_arcs = {record.chip.defect_arc};
  for (const auto& [arc, size] : record.extra_defects) {
    true_arcs.push_back(arc);
  }
  record.true_arc_in_suspects = false;
  for (const netlist::ArcId arc : true_arcs) {
    record.true_arc_in_suspects |=
        std::find(diag.suspects.begin(), diag.suspects.end(), arc) !=
        diag.suspects.end();
  }
  for (std::size_t m = 0; m < config.methods.size(); ++m) {
    int best = -1;
    for (const netlist::ArcId arc : true_arcs) {
      const int r = rank_of(diag, config.methods[m], arc);
      if (r >= 0 && (best < 0 || r < best)) best = r;
    }
    record.rank_of_true[m] = best;
  }
  if (config.include_logic_baseline && logic_baseline != nullptr) {
    const auto ranked = logic_baseline->diagnose(patterns, B);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      for (const netlist::ArcId arc : true_arcs) {
        if (ranked[i].arc == arc &&
            (record.logic_baseline_rank < 0 ||
             static_cast<int>(i) < record.logic_baseline_rank)) {
          record.logic_baseline_rank = static_cast<int>(i);
        }
      }
    }
  }
  if (artifacts != nullptr) {
    artifacts->patterns = std::move(patterns);
    artifacts->B = std::move(B);
    artifacts->diagnosis = std::move(diag);
  }
}

}  // namespace

ExperimentResult run_diagnosis_experiment(const Netlist& nl,
                                          const ExperimentConfig& config) {
  SDDD_SPAN(exp_span, "exp.run");
  exp_span.arg("circuit", std::string_view(nl.name()))
      .arg("chips", static_cast<std::int64_t>(config.n_chips))
      .arg("mc_samples", static_cast<std::int64_t>(config.mc_samples));
  const obs::MetricsSnapshot snap_start =
      obs::MetricsRegistry::instance().snapshot();
  const auto wall_start = std::chrono::steady_clock::now();
  const ExperimentSetup S(nl, config);
  // Each diagnose() scores through a call-local column cache: every trial
  // draws its own pattern set, so a cache shared across trials would
  // never hit.
  diagnosis::DiagnoserConfig diag_config;
  diag_config.max_suspects = config.max_suspects;
  diag_config.match_on_total_probability = !config.match_on_signature;
  const Diagnoser diagnoser(S.dict_sim, S.logic_sim, S.lev, S.size_model,
                            diag_config);
  const diagnosis::LogicBaselineDiagnoser logic_baseline(S.logic_sim, S.lev);

  ExperimentResult result;
  result.config = config;
  result.circuit_name = nl.name();
  result.clk = S.clk;

  // The run's identity: the same 16-hex fingerprint the checkpoint
  // journal, result JSON and manifest carry.  Stamp it into the flight
  // recorder up front so a postmortem dumped mid-run cross-links to the
  // run's other artifacts.
  const std::uint64_t fp = experiment_fingerprint(result.circuit_name, config);
  obs::Recorder::instance().set_run_id(obs::hex64(fp));

  // Trials are independent: each one derives its RNG stream purely from
  // (config.seed, trial index) - no shared sequential generator - and
  // writes only its own pre-reserved TrialRecord slot, so the trial order
  // (and therefore the thread count) cannot change any result.  The
  // dictionary simulator's lazily-memoized delay rows are the one piece of
  // shared mutable state; pre-materialize them before fanning out.
  if (runtime::would_parallelize(config.n_chips)) S.dict_sim.prewarm();
  result.trials.resize(config.n_chips);

  // Checkpoint/resume: replay journaled trials into their slots first,
  // then journal the remaining trials as they finish.  Because trial
  // randomness derives only from (seed, trial index), a replayed record is
  // bit-identical to what recomputation would produce.
  std::vector<char> done(config.n_chips, 0);
  std::unique_ptr<CheckpointWriter> journal;
  if (!config.checkpoint_path.empty()) {
    std::uint64_t valid_bytes = 0;
    bool write_header = true;
    if (config.resume) {
      CheckpointLoad load =
          load_checkpoint(config.checkpoint_path, fp, config.n_chips);
      for (CheckpointRecord& rec : load.records) {
        if (!done[rec.trial]) ++result.resumed_trials;
        done[rec.trial] = 1;
        result.trials[rec.trial] = std::move(rec.record);
      }
      if (load.header_ok) {
        valid_bytes = load.valid_bytes;
        write_header = false;
      }
      if (result.resumed_trials > 0) {
        run_resumed_counter().add(result.resumed_trials);
        SDDD_LOG_INFO("%s: resumed %zu/%zu trials from %s",
                      nl.name().c_str(), result.resumed_trials,
                      config.n_chips, config.checkpoint_path.c_str());
      }
    }
    journal = std::make_unique<CheckpointWriter>(
        config.checkpoint_path, fp, config.n_chips, valid_bytes,
        write_header);
  }

  // Soft deadline for the trial loop.  The token travels as the ambient
  // CancelToken (runtime/cancel.h): the pool re-installs it on every
  // worker, DynamicTimingSimulator polls it mid-trial, and the dispatcher
  // below checks it before starting each trial.
  runtime::CancelToken deadline_token;
  std::optional<runtime::ScopedCancelToken> deadline_guard;
  if (config.deadline_s > 0.0) {
    deadline_token.set_deadline_after_seconds(config.deadline_s);
    deadline_guard.emplace(&deadline_token);
  }

  // Dispatcher: runs each not-yet-done trial, classifies any failure into
  // TrialStatus, and journals the finished record.  A quarantined trial
  // never takes the experiment down; a deadline expiry skips trials (not
  // journaled, so --resume re-runs them); only a hard cancel propagates.
  const std::uint64_t trials_t0 = obs::now_ns();
  std::atomic<bool> deadline_fired{false};
  runtime::parallel_for(config.n_chips, [&](std::size_t trial) {
    if (done[trial]) return;
    TrialRecord record;
    record.rank_of_true.assign(config.methods.size(), -1);
    const runtime::CancelToken* token = runtime::current_cancel_token();
    if (token != nullptr && token->deadline_passed()) {
      obs::Recorder::instance().record(obs::EventKind::kDeadline, "", trial);
      deadline_fired.store(true, std::memory_order_relaxed);
      record.status = TrialStatus::kSkipped;
      result.trials[trial] = std::move(record);
      return;
    }
    obs::Recorder::instance().record(obs::EventKind::kTrialBegin, "", trial);
    const std::uint64_t trial_t0 = obs::now_ns();
    bool journal_this = journal != nullptr;
    const auto reset_record = [&] {
      record = TrialRecord{};
      record.rank_of_true.assign(config.methods.size(), -1);
    };
    const auto quarantine = [&](ErrorCode code, const char* what) {
      reset_record();
      record.status = TrialStatus::kQuarantined;
      record.error_code = code;
      record.error_message = what;
      trial_quarantined_counter().add(1);
      const std::string name(error_code_name(code));
      obs::Recorder::instance().record(obs::EventKind::kTrialError, name, trial);
      SDDD_LOG_WARN("%s: trial %zu quarantined [%s]: %s", nl.name().c_str(),
                    trial, name.c_str(), what);
      obs::dump_postmortem("trial_quarantined");
    };
    try {
      obs::fault_point("exp.trial", trial);
      run_trial_body(S, diagnoser, &logic_baseline, trial, record, nullptr);
      record.status = record.failed_test ? TrialStatus::kDiagnosed
                                         : TrialStatus::kNotFailing;
    } catch (const CancelledError&) {
      throw;  // a hard cancel aborts the experiment, not just the trial
    } catch (const DeadlineError&) {
      reset_record();
      record.status = TrialStatus::kSkipped;
      journal_this = false;
      obs::Recorder::instance().record(obs::EventKind::kDeadline, "", trial);
      deadline_fired.store(true, std::memory_order_relaxed);
    } catch (const Error& e) {
      quarantine(e.code(), e.what());
    } catch (const std::exception& e) {
      quarantine(ErrorCode::kInternal, e.what());
    }
    trial_ms_histogram().record(
        static_cast<double>(obs::now_ns() - trial_t0) * 1e-6);
    obs::Recorder::instance().record(
        obs::EventKind::kTrialEnd, "", trial,
        static_cast<std::uint64_t>(record.status));
    result.trials[trial] = std::move(record);
    if (journal_this) {
      try {
        journal->append(trial, result.trials[trial]);
      } catch (const Error& e) {
        // A journal append failure only costs durability for this trial
        // (it re-runs on resume); the measurement itself is intact.
        SDDD_LOG_WARN("%s: checkpoint append for trial %zu failed: %s",
                      nl.name().c_str(), trial, e.what());
      }
    }
  });
  if (journal) journal->flush();
  if (deadline_fired.load(std::memory_order_relaxed)) {
    obs::dump_postmortem("deadline");
  }
  result.degraded = result.skipped_trials() > 0;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Per-phase attribution: wall splits from the three local timers, CPU
  // splits (thread-seconds) and work volumes from metric deltas across the
  // experiment.  Deterministic work => deterministic counters; the ns
  // figures vary with the machine but the counters do not.  The PODEM
  // outcome and conflict-cache counts are the exception: which thread
  // learns a core first decides which calls it prunes.
  const obs::MetricsSnapshot snap_end =
      obs::MetricsRegistry::instance().snapshot();
  PhaseBreakdown& ph = result.phases;
  ph.setup_seconds = S.setup_seconds;
  ph.calibration_seconds = S.calibration_seconds;
  ph.trials_seconds = seconds_since(trials_t0);
  ph.atpg_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "atpg.gen_ns");
  ph.atpg_gate_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "atpg.gate_ns");
  ph.atpg_accepted_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "atpg.accepted_ns");
  ph.mc_observe_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "mc.observe_ns");
  ph.dict_build_cpu_seconds =
      obs::MetricsSnapshot::delta_ns_to_seconds(snap_start, snap_end,
                                                "dict.build_ns") +
      obs::MetricsSnapshot::delta_ns_to_seconds(snap_start, snap_end,
                                                "dict.e_ns");
  ph.suspect_extract_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "diag.extract_ns");
  ph.score_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "diag.score_ns");
  ph.score_column_build_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "diag.kernel.build_ns");
  ph.score_phi_cpu_seconds = obs::MetricsSnapshot::delta_ns_to_seconds(
      snap_start, snap_end, "diag.kernel.phi_ns");
  ph.sig_cache_hits = obs::MetricsSnapshot::counter_delta(
      snap_start, snap_end, "dict.sig_cache.hits");
  ph.sig_cache_misses = obs::MetricsSnapshot::counter_delta(
      snap_start, snap_end, "dict.sig_cache.misses");
  ph.sig_cache_bytes = obs::MetricsSnapshot::counter_delta(
      snap_start, snap_end, "dict.sig_cache.bytes");
  ph.mc_samples =
      obs::MetricsSnapshot::counter_delta(snap_start, snap_end, "mc.samples");
  ph.dict_columns_built = obs::MetricsSnapshot::counter_delta(
      snap_start, snap_end, "dict.columns_built");
  ph.phi_evals = obs::MetricsSnapshot::counter_delta(snap_start, snap_end,
                                                     "diag.phi_evals");
  ph.pool_tasks =
      obs::MetricsSnapshot::counter_delta(snap_start, snap_end, "pool.tasks");
  for (std::size_t k = 0; k < ph.podem.size(); ++k) {
    const std::string name =
        std::string("atpg.podem.") + PhaseBreakdown::kPodemOutcomes[k];
    ph.podem[k] = {
        obs::MetricsSnapshot::counter_delta(snap_start, snap_end, name),
        obs::MetricsSnapshot::delta_ns_to_seconds(snap_start, snap_end,
                                                  name + "_ns")};
  }
  for (std::size_t k = 0; k < ph.conflict.size(); ++k) {
    ph.conflict[k] = obs::MetricsSnapshot::counter_delta(
        snap_start, snap_end,
        std::string("atpg.conflict.") + PhaseBreakdown::kConflictCounters[k]);
  }
  for (const char* name : PhaseBreakdown::kStageCounters) {
    ph.stages.emplace_back(
        name, obs::MetricsSnapshot::counter_delta(snap_start, snap_end, name));
  }

  SDDD_LOG_INFO(
      "%s: %zu/%zu chips diagnosable, clk=%.3f, %.2fs wall "
      "(trials %.2fs, dict %.2f cpu-s, score %.2f cpu-s)",
      nl.name().c_str(), result.diagnosable_trials(), config.n_chips,
      result.clk, result.wall_seconds, ph.trials_seconds,
      ph.dict_build_cpu_seconds, ph.score_cpu_seconds);
  return result;
}

introspect::ExplanationReport explain_trial(const Netlist& nl,
                                            const ExperimentConfig& config,
                                            const ExplainRequest& request) {
  SDDD_SPAN(span, "exp.explain_trial");
  span.arg("circuit", std::string_view(nl.name()));
  const ExperimentSetup S(nl, config);

  diagnosis::DiagnoserConfig diag_config;
  diag_config.max_suspects = config.max_suspects;
  diag_config.match_on_total_probability = !config.match_on_signature;
  diag_config.capture_phi = true;
  const Diagnoser diagnoser(S.dict_sim, S.logic_sim, S.lev, S.size_model,
                            diag_config);

  if (request.trial.has_value() && *request.trial >= config.n_chips) {
    throw std::invalid_argument("explain_trial: trial index out of range");
  }
  const std::size_t first = request.trial.value_or(0);
  const std::size_t last = request.trial.has_value() ? first + 1
                                                     : config.n_chips;
  for (std::size_t trial = first; trial < last; ++trial) {
    TrialRecord record;
    record.rank_of_true.assign(config.methods.size(), -1);
    TrialArtifacts artifacts;
    run_trial_body(S, diagnoser, nullptr, trial, record, &artifacts);
    if (!record.failed_test) continue;

    introspect::ExplainConfig explain_config;
    explain_config.top_k = request.top_k;
    explain_config.match_on_total_probability = !config.match_on_signature;
    auto report = introspect::explain_diagnosis(
        S.dict_sim, S.logic_sim, S.lev, S.size_model, artifacts.patterns,
        artifacts.B, artifacts.diagnosis, S.clk, explain_config);
    report.circuit = nl.name();
    report.run_id = obs::hex64(experiment_fingerprint(nl.name(), config));
    report.seed = config.seed;
    report.trial = trial;
    report.injected_arc = record.chip.defect_arc;
    report.injected_size = record.chip.defect_size;
    return report;
  }
  throw ModelError(
      request.trial.has_value()
          ? "explain_trial: the requested trial is not diagnosable (the chip "
            "never observably failed)"
          : "explain_trial: no diagnosable trial in the configured chip "
            "population");
}

}  // namespace sddd::eval
