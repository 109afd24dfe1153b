// Tests for criticality analysis, statistical coverage and diagnostic
// pattern selection.
#include <gtest/gtest.h>

#include <numeric>

#include "atpg/diag_patterns.h"
#include "defect/defect_model.h"
#include "diagnosis/pattern_select.h"
#include "eval/coverage.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "stats/rng.h"
#include "timing/celllib.h"
#include "timing/criticality.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace sddd {
namespace {

using netlist::ArcId;
using netlist::CellType;
using netlist::GateId;
using netlist::Levelization;
using netlist::Netlist;

TEST(Criticality, ChainIsFullyCritical) {
  Netlist nl("chain");
  const auto a = nl.add_input("a");
  GateId prev = a;
  for (int i = 0; i < 4; ++i) {
    prev = nl.add_gate(CellType::kBuf,
                       std::string("b").append(std::to_string(i)), {prev});
  }
  nl.add_output(prev);
  nl.freeze();
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField field(model, 50, 0.0, 3);
  const timing::CriticalityAnalysis crit(field, lev);
  for (ArcId arc = 0; arc < nl.arc_count(); ++arc) {
    EXPECT_DOUBLE_EQ(crit.arc_criticality(arc), 1.0);
  }
  EXPECT_DOUBLE_EQ(crit.output_criticality(prev), 1.0);
}

TEST(Criticality, DominantBranchWins) {
  // Two parallel branches into independent outputs; the longer one owns
  // (almost) all criticality.
  Netlist nl("branch");
  const auto a = nl.add_input("a");
  GateId lng = a;
  for (int i = 0; i < 6; ++i) {
    lng = nl.add_gate(CellType::kBuf,
                      std::string("L").append(std::to_string(i)), {lng});
  }
  const auto sht = nl.add_gate(CellType::kBuf, "S", {a});
  nl.add_output(lng);
  nl.add_output(sht);
  nl.freeze();
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField field(model, 300, 0.03, 5);
  const timing::CriticalityAnalysis crit(field, lev);
  EXPECT_GT(crit.output_criticality(lng), 0.999);
  EXPECT_LT(crit.output_criticality(sht), 0.001);
  EXPECT_LT(crit.arc_criticality(nl.arc_of(sht, 0)), 0.001);
}

TEST(Criticality, RankedArcsSortedAndMassConserved) {
  netlist::SynthSpec spec;
  spec.n_inputs = 12;
  spec.n_outputs = 8;
  spec.n_gates = 110;
  spec.depth = 11;
  spec.seed = 801;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField field(model, 200, 0.03, 7);
  const timing::CriticalityAnalysis crit(field, lev);
  const auto ranked = crit.ranked_arcs();
  ASSERT_EQ(ranked.size(), nl.arc_count());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(crit.arc_criticality(ranked[i - 1]),
              crit.arc_criticality(ranked[i]));
  }
  // Every sample has exactly one critical path; total output criticality
  // is 1, and the path's arcs each get credited once per sample.
  double out_total = 0.0;
  for (const GateId o : nl.outputs()) out_total += crit.output_criticality(o);
  EXPECT_NEAR(out_total, 1.0, 1e-9);
}

struct CoverageFixture {
  Netlist nl;
  Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  timing::DelayField field;
  timing::DynamicTimingSimulator dyn;
  logicsim::BitSimulator sim;
  defect::DefectSizeModel size_model;
  std::vector<logicsim::PatternPair> patterns;
  double clk;

  CoverageFixture()
      : nl([] {
          netlist::SynthSpec spec;
          spec.n_inputs = 12;
          spec.n_outputs = 8;
          spec.n_gates = 100;
          spec.depth = 10;
          spec.seed = 802;
          return netlist::synthesize(spec);
        }()),
        lev(nl),
        model(nl, lib),
        field(model, 120, 0.03, 9),
        dyn(field, lev),
        sim(nl, lev),
        size_model(model.mean_cell_delay(), 0.5, 1.0, 0.5, 11),
        clk(0.0) {
    stats::Rng rng(12);
    for (int i = 0; i < 6; ++i) {
      patterns.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
    stats::SampleVector delta(field.sample_count(), 0.0);
    for (const auto& p : patterns) {
      const paths::TransitionGraph tg(sim, lev, p);
      delta.max_with(dyn.induced_delay(tg, dyn.simulate(tg)));
    }
    clk = delta.quantile(0.85);
  }
};

TEST(Coverage, BoundsAndBaselineConsistency) {
  CoverageFixture f;
  std::vector<ArcId> sites;
  for (ArcId a = 0; a < f.nl.arc_count(); a += 7) sites.push_back(a);
  const auto cov = eval::statistical_coverage(
      f.dyn, f.sim, f.lev, f.patterns, sites, f.size_model, f.clk);
  ASSERT_EQ(cov.site_coverage.size(), sites.size());
  for (const double c : cov.site_coverage) {
    EXPECT_GE(c, cov.defect_free_fail - 1e-12);  // monotone in defects
    EXPECT_LE(c, 1.0);
  }
  EXPECT_GE(cov.mean_coverage(), 0.0);
  EXPECT_LE(cov.mean_coverage(), 1.0);
  EXPECT_GE(cov.detection_rate(0.0), 1.0 - 1e-12);
  EXPECT_LE(cov.detection_rate(1.01), 0.0 + 1e-12);
}

TEST(Coverage, HugeClockMeansNoCoverage) {
  CoverageFixture f;
  const std::vector<ArcId> sites = {0, 3, 9};
  const auto cov = eval::statistical_coverage(
      f.dyn, f.sim, f.lev, f.patterns, sites, f.size_model, 1e9);
  EXPECT_DOUBLE_EQ(cov.defect_free_fail, 0.0);
  for (const double c : cov.site_coverage) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Coverage, UnionIsAtLeastSinglePattern) {
  CoverageFixture f;
  const std::vector<ArcId> sites = {5};
  const auto all = eval::statistical_coverage(
      f.dyn, f.sim, f.lev, f.patterns, sites, f.size_model, f.clk);
  const std::vector<logicsim::PatternPair> one = {f.patterns[0]};
  const auto single = eval::statistical_coverage(
      f.dyn, f.sim, f.lev, one, sites, f.size_model, f.clk);
  EXPECT_GE(all.site_coverage[0], single.site_coverage[0] - 1e-12);
}

TEST(PatternSelect, CoverageMonotoneAndBudgetRespected) {
  CoverageFixture f;
  std::vector<ArcId> suspects;
  for (ArcId a = 0; a < f.nl.arc_count() && suspects.size() < 20; a += 9) {
    suspects.push_back(a);
  }
  stats::Rng rng(13);
  std::vector<logicsim::PatternPair> candidates;
  for (int i = 0; i < 16; ++i) {
    candidates.push_back(
        atpg::random_pattern_pair(f.nl.inputs().size(), rng));
  }
  diagnosis::PatternSelectConfig config;
  config.budget = 5;
  const auto sel = diagnosis::select_diagnostic_patterns(
      f.dyn, f.sim, f.lev, candidates, suspects, f.size_model, f.clk, config);
  EXPECT_LE(sel.chosen.size(), 5u);
  EXPECT_EQ(sel.total_pairs, 20u * 19u / 2u);
  for (std::size_t i = 1; i < sel.pairs_covered.size(); ++i) {
    EXPECT_GE(sel.pairs_covered[i], sel.pairs_covered[i - 1]);
  }
  // The first pick must be the single best candidate: verify no other
  // single candidate distinguishes more pairs.
  if (!sel.chosen.empty()) {
    diagnosis::PatternSelectConfig one;
    one.budget = 1;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const std::vector<logicsim::PatternPair> solo = {candidates[c]};
      const auto r = diagnosis::select_diagnostic_patterns(
          f.dyn, f.sim, f.lev, solo, suspects, f.size_model, f.clk, one);
      const std::size_t pairs =
          r.pairs_covered.empty() ? 0 : r.pairs_covered[0];
      EXPECT_LE(pairs, sel.pairs_covered[0]);
    }
  }
}

TEST(PatternSelect, DegenerateInputs) {
  CoverageFixture f;
  const std::vector<ArcId> one_suspect = {3};
  stats::Rng rng(14);
  const std::vector<logicsim::PatternPair> candidates = {
      atpg::random_pattern_pair(f.nl.inputs().size(), rng)};
  const auto sel = diagnosis::select_diagnostic_patterns(
      f.dyn, f.sim, f.lev, candidates, one_suspect, f.size_model, f.clk);
  EXPECT_EQ(sel.total_pairs, 0u);
  EXPECT_TRUE(sel.chosen.empty());
  EXPECT_DOUBLE_EQ(sel.coverage(), 1.0);  // nothing to distinguish
}

}  // namespace
}  // namespace sddd
