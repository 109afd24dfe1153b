// world.h - The experiment's statistical world, rebuilt from public calls.
//
// run_diagnosis_experiment keeps its set-up and trial body private, so the
// traced table1 run, the diagnose workload and serve's chip draws rebuild
// the same objects here with the experiment's own seed discipline
// (dictionary field seed ^ 0xd1c7, instance field seed ^ 0xc41b, size model
// seed ^ 0x5e1f, calibration stream Rng(seed, 0xca1b)).  table1 checks the
// rebuild against the real experiment trial by trial; serve checks that its
// clk is the store's.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "defect/defect_model.h"
#include "defect/injector.h"
#include "diagnosis/behavior.h"
#include "eval/experiment.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "stats/rv.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace perfbench {

/// Seed of the statistical world every workload shares: the stand-in
/// circuit, both Monte-Carlo fields, the calibrated clk and the store.  It
/// is Table I's default.  The workload seed varies only the chips drawn in
/// this world; a world of its own per seed would move clk, and with it
/// injection yield, suspect counts and accuracy, by more than any bound.
inline constexpr std::uint64_t kWorldSeed = 2003;

/// The circuit of every workload: the s9234 stand-in at scale 0.35 (the
/// ROADMAP baseline shape).
sddd::netlist::Netlist make_circuit();

/// Table-I defaults in the shared world at the ROADMAP baseline sample
/// count.
sddd::eval::ExperimentConfig table1_config(std::size_t n_chips);

struct World {
  World(const sddd::netlist::Netlist& nl_in,
        const sddd::eval::ExperimentConfig& cfg, SpanRecorder& spans);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const sddd::netlist::Netlist& nl;
  const sddd::eval::ExperimentConfig& config;
  sddd::netlist::Levelization lev;
  sddd::timing::StatisticalCellLibrary lib;
  sddd::timing::ArcDelayModel model;
  sddd::logicsim::BitSimulator logic_sim;
  std::size_t instance_samples;
  sddd::timing::DelayField dict_field;
  sddd::timing::DelayField inst_field;
  sddd::timing::DynamicTimingSimulator dict_sim;
  sddd::timing::DynamicTimingSimulator inst_sim;
  sddd::defect::DefectSizeModel size_model;
  sddd::stats::RandomVariable size_rv;
  sddd::defect::SegmentDefectModel location_model;
  sddd::defect::DefectInjector injector;
  double clk = 0.0;
  double detect_lo = 0.0;
  double detect_hi = 0.0;
  double calibration_s = 0.0;
};

/// The dictionary store's pattern recipe (store::build_dictionary_store):
/// the deduplicated union of the diagnostic pattern sets of six random
/// sites, capped at 24.
std::vector<sddd::logicsim::PatternPair> store_patterns(const World& W,
                                                        SpanRecorder& spans);

/// A failing chip whose failure the defect causes.
struct DrawnChip {
  sddd::defect::InjectedChip chip;
  sddd::diagnosis::BehaviorMatrix B{0, 0};
  std::size_t draws = 0;
  bool failing = false;  ///< false: no draw within the retry budget failed
};

/// Chip t of `seed`: a random site and size from the instance world,
/// redrawn (up to 120 times) until it fails one of `patterns` at clk with
/// some failing cell that passes on the same instance without the defect
/// (the experiment's rule).  Chip t's randomness is
/// Rng(seed, 0xe4a1).split(t + 1); chips are drawn in parallel.
std::vector<DrawnChip> draw_chips(
    const World& W, std::span<const sddd::logicsim::PatternPair> patterns,
    std::uint64_t seed, std::size_t n, SpanRecorder& spans);

/// True when some failing cell of `B` passes in `B0`.
bool defect_contributes(const sddd::diagnosis::BehaviorMatrix& B,
                        const sddd::diagnosis::BehaviorMatrix& B0);

}  // namespace perfbench
