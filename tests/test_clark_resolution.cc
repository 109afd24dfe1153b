// Tests for the analytic (Clark) SSTA and the diagnosis resolution
// analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "atpg/pdf_atpg.h"
#include "defect/defect_model.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/resolution.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "stats/rng.h"
#include "timing/celllib.h"
#include "timing/clark_ssta.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"
#include "timing/ssta.h"

namespace sddd {
namespace {

using netlist::ArcId;
using netlist::CellType;
using netlist::GateId;
using netlist::Levelization;
using netlist::Netlist;
using timing::ClarkStaticTiming;
using timing::GaussianArrival;
using timing::clark_max;

TEST(ClarkMax, DegenerateCases) {
  const GaussianArrival x{10.0, 0.0};
  const GaussianArrival y{5.0, 0.0};
  const auto m = clark_max(x, y);
  EXPECT_DOUBLE_EQ(m.mean, 10.0);
  EXPECT_DOUBLE_EQ(m.var, 0.0);
}

TEST(ClarkMax, SymmetricCase) {
  // max of two iid N(0, 1): mean = 1/sqrt(pi), var = 1 - 1/pi.
  const GaussianArrival x{0.0, 1.0};
  const auto m = clark_max(x, x);
  EXPECT_NEAR(m.mean, 1.0 / std::sqrt(M_PI), 1e-9);
  EXPECT_NEAR(m.var, 1.0 - 1.0 / M_PI, 1e-9);
}

TEST(ClarkMax, DominatedInputVanishes) {
  const GaussianArrival big{100.0, 4.0};
  const GaussianArrival small{10.0, 4.0};
  const auto m = clark_max(big, small);
  EXPECT_NEAR(m.mean, 100.0, 1e-6);
  EXPECT_NEAR(m.var, 4.0, 1e-6);
}

TEST(ClarkMax, MatchesMonteCarlo) {
  const GaussianArrival x{100.0, 25.0};
  const GaussianArrival y{95.0, 64.0};
  stats::Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double xv = 100.0 + 5.0 * stats::inverse_normal_cdf(rng.uniform01());
    const double yv = 95.0 + 8.0 * stats::inverse_normal_cdf(rng.uniform01());
    const double m = std::max(xv, yv);
    sum += m;
    sq += m * m;
  }
  const double mc_mean = sum / n;
  const double mc_var = sq / n - mc_mean * mc_mean;
  const auto m = clark_max(x, y);
  EXPECT_NEAR(m.mean, mc_mean, 0.1);
  EXPECT_NEAR(m.var, mc_var, 1.0);
}

TEST(GaussianArrival, CriticalProbabilityAndQuantile) {
  const GaussianArrival g{100.0, 25.0};
  EXPECT_NEAR(g.critical_probability(100.0), 0.5, 1e-9);
  EXPECT_NEAR(g.critical_probability(110.0), 1.0 - 0.97725, 1e-4);
  EXPECT_NEAR(g.quantile(0.5), 100.0, 1e-9);
  EXPECT_GT(g.quantile(0.99), 110.0);
}

TEST(ClarkSsta, ExactOnChains) {
  // On a fanout-free chain the analytic result is exact: sum of Normals.
  Netlist nl("chain");
  const auto a = nl.add_input("a");
  GateId prev = a;
  for (int i = 0; i < 5; ++i) {
    prev = nl.add_gate(CellType::kNot,
                       std::string("n").append(std::to_string(i)), {prev});
  }
  nl.add_output(prev);
  nl.freeze();
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const ClarkStaticTiming clark(model, lev);
  double mean = 0.0;
  double var = 0.0;
  for (ArcId arc = 0; arc < nl.arc_count(); ++arc) {
    mean += model.arc_rv(arc).mean();
    var += model.arc_rv(arc).stddev() * model.arc_rv(arc).stddev();
  }
  EXPECT_NEAR(clark.circuit_delay().mean, mean, 1e-9);
  EXPECT_NEAR(clark.circuit_delay().var, var, 1e-9);
}

TEST(ClarkSsta, TracksMonteCarloOnRealCircuits) {
  netlist::SynthSpec spec;
  spec.n_inputs = 14;
  spec.n_outputs = 9;
  spec.n_gates = 160;
  spec.depth = 12;
  spec.seed = 501;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const ClarkStaticTiming clark(model, lev);
  const timing::DelayField field(model, 4000, 0.0, 7);
  const timing::StaticTiming mc(field, lev);
  // The analytic mean should track MC within a few percent on moderate
  // reconvergence (the error is the documented approximation).
  EXPECT_NEAR(clark.circuit_delay().mean, mc.circuit_delay().mean(),
              0.05 * mc.circuit_delay().mean());
  EXPECT_NEAR(clark.circuit_delay().sigma(), mc.circuit_delay().stddev(),
              0.5 * mc.circuit_delay().stddev() + 5.0);
}

// ---------------------------------------------------------------------------

struct ResolutionFixture {
  Netlist nl;
  Levelization lev;
  logicsim::BitSimulator sim;
  std::vector<logicsim::PatternPair> patterns;

  ResolutionFixture()
      : nl([] {
          netlist::SynthSpec spec;
          spec.n_inputs = 12;
          spec.n_outputs = 8;
          spec.n_gates = 100;
          spec.depth = 10;
          spec.seed = 502;
          return netlist::synthesize(spec);
        }()),
        lev(nl),
        sim(nl, lev) {
    stats::Rng rng(41);
    for (int i = 0; i < 8; ++i) {
      patterns.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
  }
};

TEST(Resolution, ClassesPartitionTheSuspects) {
  ResolutionFixture f;
  std::vector<ArcId> suspects;
  for (ArcId a = 0; a < f.nl.arc_count(); a += 3) suspects.push_back(a);
  const auto classes =
      diagnosis::logic_equivalence_classes(f.sim, f.lev, f.patterns, suspects);
  std::size_t total = 0;
  for (const auto& c : classes.classes) total += c.size();
  EXPECT_EQ(total, suspects.size());
  EXPECT_EQ(classes.class_of.size(), suspects.size());
  for (std::size_t s = 0; s < suspects.size(); ++s) {
    const auto& cls = classes.classes[classes.class_of[s]];
    EXPECT_NE(std::find(cls.begin(), cls.end(), suspects[s]), cls.end());
  }
  EXPECT_GE(classes.resolution(suspects.size()), 0.0);
  EXPECT_LE(classes.resolution(suspects.size()), 1.0);
  EXPECT_GE(classes.largest(), 1u);
}

TEST(Resolution, SerialArcsWithoutFanoutAreLogicallyEquivalent) {
  // A buffer chain: every arc along it reaches exactly the same outputs
  // through the same patterns - one logic class.
  Netlist nl("serial");
  const auto a = nl.add_input("a");
  const auto b1 = nl.add_gate(CellType::kBuf, "b1", {a});
  const auto b2 = nl.add_gate(CellType::kBuf, "b2", {b1});
  const auto b3 = nl.add_gate(CellType::kNot, "b3", {b2});
  nl.add_output(b3);
  nl.freeze();
  const Levelization lev(nl);
  const logicsim::BitSimulator sim(nl, lev);
  const std::vector<logicsim::PatternPair> patterns = {
      {{false}, {true}}, {{true}, {false}}};
  std::vector<ArcId> suspects;
  for (ArcId arc = 0; arc < nl.arc_count(); ++arc) suspects.push_back(arc);
  const auto classes =
      diagnosis::logic_equivalence_classes(sim, lev, patterns, suspects);
  EXPECT_EQ(classes.count(), 1u);
  EXPECT_EQ(classes.largest(), nl.arc_count());
}

TEST(Resolution, TimingClassesRefineWithTolerance) {
  ResolutionFixture f;
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(f.nl, lib);
  const timing::DelayField field(model, 120, 0.03, 9);
  const timing::DynamicTimingSimulator dyn(field, f.lev);
  // clk near the median induced delay.
  stats::SampleVector delta(field.sample_count(), 0.0);
  for (const auto& p : f.patterns) {
    const paths::TransitionGraph tg(f.sim, f.lev, p);
    delta.max_with(dyn.induced_delay(tg, dyn.simulate(tg)));
  }
  const double clk = delta.quantile(0.8);
  const diagnosis::FaultDictionary dict(dyn, f.sim, f.lev, f.patterns, clk);
  const defect::DefectSizeModel size_model(model.mean_cell_delay(), 0.5, 1.0,
                                           0.5, 3);
  std::vector<ArcId> suspects;
  for (ArcId a = 0; a < f.nl.arc_count(); a += 11) suspects.push_back(a);

  const auto coarse = diagnosis::timing_equivalence_classes(
      dict, size_model, suspects, /*tolerance=*/1.1);
  EXPECT_EQ(coarse.count(), 1u);  // everything within 1.1 of everything
  const auto fine = diagnosis::timing_equivalence_classes(
      dict, size_model, suspects, /*tolerance=*/0.0);
  const auto mid = diagnosis::timing_equivalence_classes(
      dict, size_model, suspects, /*tolerance=*/0.1);
  EXPECT_GE(fine.count(), mid.count());
  EXPECT_GE(mid.count(), coarse.count());

  // Distances are symmetric and zero on the diagonal.
  EXPECT_DOUBLE_EQ(
      diagnosis::signature_distance(dict, size_model, suspects[0], suspects[0]),
      0.0);
  EXPECT_DOUBLE_EQ(
      diagnosis::signature_distance(dict, size_model, suspects[0], suspects[1]),
      diagnosis::signature_distance(dict, size_model, suspects[1], suspects[0]));
}

TEST(Resolution, ClassRankCountsDistinctClasses) {
  diagnosis::EquivalenceClasses classes;
  classes.classes = {{10, 11}, {20}, {30}};
  classes.class_of = {0, 0, 1, 2};
  const std::vector<ArcId> suspects = {10, 11, 20, 30};
  // Ranked list: 20 (class 1), 11 (class 0), 30 (class 2).
  const std::vector<ArcId> ranked = {20, 11, 30};
  EXPECT_EQ(diagnosis::class_rank(classes, suspects, ranked, 20), 0);
  EXPECT_EQ(diagnosis::class_rank(classes, suspects, ranked, 10), 1);
  EXPECT_EQ(diagnosis::class_rank(classes, suspects, ranked, 11), 1);
  EXPECT_EQ(diagnosis::class_rank(classes, suspects, ranked, 30), 2);
  EXPECT_EQ(diagnosis::class_rank(classes, suspects, ranked, 99), -1);
}

}  // namespace
}  // namespace sddd
