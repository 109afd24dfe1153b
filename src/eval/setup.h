// setup.h - The experiment's world, built once per (netlist, config): the
// statistical timing model, its two Monte-Carlo instance populations, the
// defect models, the calibrated clk and every seed derived from
// config.seed.  The paper draws the dictionary (M_crt, E_crt) and the
// manufactured chips from one such model (Definitions D.1-D.2).
// run_diagnosis_experiment, explain_trial, the dictionary store's build and
// its chip sampler (store/store.h) all construct it, so a store holds the
// dictionary the experiment computes and samples the experiment's chips.
#pragma once

#include <cstdint>
#include <optional>

#include "atpg/conflict_cache.h"
#include "defect/defect_model.h"
#include "defect/injector.h"
#include "eval/experiment.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "stats/rng.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace sddd::eval {

/// Every member but `conflicts` is a pure function of (netlist, config,
/// known_clk).  What `conflicts` holds depends on the thread schedule, but
/// no output does: a core or a recorded abort only answers PODEM calls
/// that return no test anyway (atpg/conflict_cache.h).
struct ExperimentSetup {
  /// Builds the world for `nl` at `config`.  clk is calibrated by the
  /// per-site achievable-delay sweep (ExperimentConfig::clk_site_quantile)
  /// unless `known_clk` is given, which skips the sweep.  Throws
  /// std::invalid_argument for a sequential netlist (run
  /// full_scan_transform first) and sddd::ModelError when no calibration
  /// site is testable.
  ExperimentSetup(const netlist::Netlist& nl, const ExperimentConfig& config,
                  std::optional<double> known_clk = std::nullopt);

  ExperimentSetup(const ExperimentSetup&) = delete;
  ExperimentSetup& operator=(const ExperimentSetup&) = delete;

  /// Trial `trial`'s random stream.  It depends on (config.seed, trial)
  /// alone, so any trial can be re-run on its own, in any order.
  stats::Rng trial_rng(std::size_t trial) const;

  const netlist::Netlist& nl;
  const ExperimentConfig config;
  const std::uint64_t t0;  ///< obs::now_ns() at construction
  netlist::Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  logicsim::BitSimulator logic_sim;
  std::size_t instance_samples;
  // Two disjoint Monte-Carlo worlds: the dictionary field is the CAD
  // model's predictor; the instance field manufactures the actual chips.
  timing::DelayField dict_field;
  timing::DelayField inst_field;
  timing::DynamicTimingSimulator dict_sim;
  timing::DynamicTimingSimulator inst_sim;
  double setup_seconds;
  defect::DefectSizeModel size_model;
  defect::SegmentDefectModel location_model;
  defect::DefectInjector injector;
  /// Learned false-path conflicts and PODEM's memos, shared by the clk
  /// calibration, every trial and thread, explain_trial and the store's
  /// pattern sweep.
  mutable atpg::ConflictCache conflicts;
  double clk = 0.0;
  double calibration_seconds = 0.0;  ///< 0 when clk was given
  // Detectability window for the injection gate (SiteBias::kDetectable).
  double detect_lo = 0.0;
  double detect_hi = 0.0;
};

}  // namespace sddd::eval
