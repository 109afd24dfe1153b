// Unit tests for path machinery: path validity, transition graphs
// (toggles, active arcs, min/max rules), cones, path enumeration and
// heaviest-path selection, plus an exhaustive brute-force check of the
// transition graph on c17 (all 1024 pattern pairs).
#include <gtest/gtest.h>

#include "logicsim/bitsim.h"
#include "netlist/bench_io.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "paths/path.h"
#include "paths/path_enum.h"
#include "paths/transition_graph.h"
#include "stats/rng.h"

namespace sddd::paths {
namespace {

using logicsim::BitSimulator;
using logicsim::Pattern;
using logicsim::PatternPair;
using netlist::ArcId;
using netlist::CellType;
using netlist::GateId;
using netlist::Levelization;
using netlist::Netlist;

/// a -> g1(NAND) -> g2(NOT) -> out, with side input b on g1.
struct Chain {
  Netlist nl{"chain"};
  GateId a, b, g1, g2;
  Chain() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    g1 = nl.add_gate(CellType::kNand, "g1", {a, b});
    g2 = nl.add_gate(CellType::kNot, "g2", {g1});
    nl.add_output(g2);
    nl.freeze();
  }
};

TEST(Path, ValidityAndEndpoints) {
  const Chain c;
  Path p;
  p.arcs = {c.nl.arc_of(c.g1, 0), c.nl.arc_of(c.g2, 0)};
  EXPECT_TRUE(is_valid_path(c.nl, p));
  EXPECT_EQ(path_source(c.nl, p), c.a);
  EXPECT_EQ(path_sink(c.nl, p), c.g2);
  EXPECT_TRUE(path_contains(p, c.nl.arc_of(c.g1, 0)));
  EXPECT_FALSE(path_contains(p, c.nl.arc_of(c.g1, 1)));

  Path broken;
  broken.arcs = {c.nl.arc_of(c.g2, 0), c.nl.arc_of(c.g1, 0)};
  EXPECT_FALSE(is_valid_path(c.nl, broken));
  EXPECT_FALSE(is_valid_path(c.nl, Path{}));
}

TEST(Path, WeightSumsArcs) {
  const Chain c;
  Path p;
  p.arcs = {c.nl.arc_of(c.g1, 0), c.nl.arc_of(c.g2, 0)};
  const std::vector<double> w = {10.0, 20.0, 5.0};
  EXPECT_DOUBLE_EQ(path_weight(p, w), 15.0);
}

TEST(TransitionGraph, TogglesFollowLogic) {
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  // a: 0->1, b steady 1: NAND 1->0, NOT 0->1: everything toggles.
  const PatternPair pp{{false, true}, {true, true}};
  const TransitionGraph tg(sim, lev, pp);
  EXPECT_TRUE(tg.toggles(c.a));
  EXPECT_FALSE(tg.toggles(c.b));
  EXPECT_TRUE(tg.toggles(c.g1));
  EXPECT_TRUE(tg.toggles(c.g2));
  EXPECT_TRUE(tg.any_output_toggles());
  EXPECT_TRUE(tg.is_active(c.nl.arc_of(c.g1, 0)));
  EXPECT_FALSE(tg.is_active(c.nl.arc_of(c.g1, 1)));  // b does not toggle
  EXPECT_TRUE(tg.is_active(c.nl.arc_of(c.g2, 0)));
}

TEST(TransitionGraph, MinRuleWhenOutputControlled) {
  // Both NAND inputs fall 1->0: output rises because the FIRST input to
  // reach 0 controls it -> min rule with both arcs active.
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  const PatternPair pp{{true, true}, {false, false}};
  const TransitionGraph tg(sim, lev, pp);
  EXPECT_TRUE(tg.toggles(c.g1));
  EXPECT_EQ(tg.rule(c.g1), ArrivalRule::kMinOverActive);
  EXPECT_EQ(tg.active_fanins(c.g1).size(), 2u);
}

TEST(TransitionGraph, MaxRuleWhenOutputReleased) {
  // Both NAND inputs rise 0->1: output falls when the LAST input arrives
  // (leaves controlling 0) -> max rule.
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  const PatternPair pp{{false, false}, {true, true}};
  const TransitionGraph tg(sim, lev, pp);
  EXPECT_TRUE(tg.toggles(c.g1));
  EXPECT_EQ(tg.rule(c.g1), ArrivalRule::kMaxOverActive);
  EXPECT_EQ(tg.active_fanins(c.g1).size(), 2u);
}

TEST(TransitionGraph, ControlledFinalOnlyCountsControllingArcs) {
  // a falls 1->0 (to controlling for NAND), b steady 1: output rises due
  // to a alone.
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  const PatternPair pp{{true, true}, {false, true}};
  const TransitionGraph tg(sim, lev, pp);
  EXPECT_EQ(tg.rule(c.g1), ArrivalRule::kMinOverActive);
  ASSERT_EQ(tg.active_fanins(c.g1).size(), 1u);
  EXPECT_EQ(tg.active_fanins(c.g1)[0], c.nl.arc_of(c.g1, 0));
}

TEST(TransitionGraph, NoTogglesNoActivity) {
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  const PatternPair pp{{true, false}, {true, false}};  // v1 == v2
  const TransitionGraph tg(sim, lev, pp);
  EXPECT_FALSE(tg.any_output_toggles());
  for (ArcId a = 0; a < c.nl.arc_count(); ++a) {
    EXPECT_FALSE(tg.is_active(a));
  }
}

TEST(TransitionGraph, TogglingGateHasActiveFanin) {
  // Invariant: every toggling combinational gate has at least one active
  // fanin arc (documented in transition_graph.h).
  netlist::SynthSpec spec;
  spec.n_inputs = 12;
  spec.n_outputs = 8;
  spec.n_gates = 120;
  spec.depth = 12;
  spec.seed = 51;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  stats::Rng rng(8);
  for (int t = 0; t < 30; ++t) {
    PatternPair pp;
    pp.v1.resize(12);
    pp.v2.resize(12);
    for (std::size_t i = 0; i < 12; ++i) {
      pp.v1[i] = rng.bernoulli(0.5);
      pp.v2[i] = rng.bernoulli(0.5);
    }
    const TransitionGraph tg(sim, lev, pp);
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      if (tg.toggles(g) && is_combinational(nl.gate(g).type)) {
        EXPECT_FALSE(tg.active_fanins(g).empty()) << "gate " << g;
      }
    }
  }
}

TEST(TransitionGraph, ConeToOutputContainsOnlyActiveArcs) {
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  const PatternPair pp{{false, true}, {true, true}};
  const TransitionGraph tg(sim, lev, pp);
  const auto cone = tg.cone_to_output(c.g2);
  EXPECT_TRUE(cone[c.nl.arc_of(c.g2, 0)]);
  EXPECT_TRUE(cone[c.nl.arc_of(c.g1, 0)]);
  EXPECT_FALSE(cone[c.nl.arc_of(c.g1, 1)]);
  // Cone of a non-toggling gate is empty.
  const auto empty_cone = tg.cone_to_output(c.b);
  for (const bool f : empty_cone) EXPECT_FALSE(f);
}

TEST(TransitionGraph, ForwardConeIsTopoSorted) {
  netlist::SynthSpec spec;
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 90;
  spec.depth = 10;
  spec.seed = 53;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  stats::Rng rng(9);
  PatternPair pp;
  pp.v1.resize(10);
  pp.v2.resize(10);
  for (std::size_t i = 0; i < 10; ++i) {
    pp.v1[i] = rng.bernoulli(0.5);
    pp.v2[i] = !pp.v1[i];
  }
  const TransitionGraph tg(sim, lev, pp);
  for (const GateId pi : nl.inputs()) {
    const auto cone = tg.forward_cone(pi);
    for (std::size_t i = 1; i < cone.size(); ++i) {
      EXPECT_LE(lev.level(cone[i - 1]), lev.level(cone[i]));
    }
    if (tg.toggles(pi)) {
      ASSERT_FALSE(cone.empty());
      EXPECT_EQ(cone.front(), pi);
    }
  }
}

TEST(PathDistances, ChainDistances) {
  const Chain c;
  const Levelization lev(c.nl);
  const std::vector<double> w = {10.0, 20.0, 5.0};
  const PathDistances dist(c.nl, lev, w);
  EXPECT_DOUBLE_EQ(dist.upstream(c.a), 0.0);
  EXPECT_DOUBLE_EQ(dist.upstream(c.g1), 20.0);  // max(10 via a, 20 via b)
  EXPECT_DOUBLE_EQ(dist.upstream(c.g2), 25.0);
  EXPECT_DOUBLE_EQ(dist.downstream(c.g2), 0.0);
  EXPECT_DOUBLE_EQ(dist.downstream(c.g1), 5.0);
  EXPECT_DOUBLE_EQ(dist.downstream(c.a), 15.0);
  EXPECT_DOUBLE_EQ(dist.through_arc(c.nl.arc_of(c.g1, 0)), 15.0);
  EXPECT_DOUBLE_EQ(dist.through_arc(c.nl.arc_of(c.g1, 1)), 25.0);
  EXPECT_DOUBLE_EQ(dist.critical_weight(), 25.0);
}

TEST(PathDistances, SizeMismatchThrows) {
  const Chain c;
  const Levelization lev(c.nl);
  const std::vector<double> w = {1.0};
  EXPECT_THROW((PathDistances{c.nl, lev, w}), std::invalid_argument);
}

TEST(KHeaviestPaths, FindsTrueHeaviestFirst) {
  netlist::SynthSpec spec;
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 80;
  spec.depth = 9;
  spec.seed = 61;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  std::vector<double> w(nl.arc_count());
  stats::Rng rng(10);
  for (auto& x : w) x = rng.uniform(1.0, 100.0);
  const PathDistances dist(nl, lev, w);
  for (ArcId site = 0; site < nl.arc_count(); site += 13) {
    const auto paths = k_heaviest_paths_through(nl, lev, w, site, 4);
    ASSERT_FALSE(paths.empty()) << "site " << site;
    // The first returned path must attain the DP bound through the arc.
    EXPECT_NEAR(path_weight(paths[0], w), dist.through_arc(site), 1e-9);
    for (const auto& p : paths) {
      EXPECT_TRUE(is_valid_path(nl, p));
      EXPECT_TRUE(path_contains(p, site));
    }
    // Heaviest-first ordering.
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_GE(path_weight(paths[i - 1], w), path_weight(paths[i], w) - 1e-9);
    }
  }
}

TEST(KHeaviestPaths, DistinctPaths) {
  netlist::SynthSpec spec;
  spec.n_inputs = 8;
  spec.n_outputs = 5;
  spec.n_gates = 60;
  spec.depth = 8;
  spec.seed = 67;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  const std::vector<double> w(nl.arc_count(), 1.0);
  const auto paths = k_heaviest_paths_through(nl, lev, w, 5, 8);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i].arcs, paths[j].arcs);
    }
  }
}

TEST(EnumerateActivePaths, AllArcsActiveAndBounded) {
  netlist::SynthSpec spec;
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 90;
  spec.depth = 10;
  spec.seed = 71;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  stats::Rng rng(11);
  PatternPair pp;
  pp.v1.resize(10);
  pp.v2.resize(10);
  for (std::size_t i = 0; i < 10; ++i) {
    pp.v1[i] = rng.bernoulli(0.5);
    pp.v2[i] = !pp.v1[i];
  }
  const TransitionGraph tg(sim, lev, pp);
  for (const GateId o : nl.outputs()) {
    const auto ps = enumerate_active_paths(tg, o, 50);
    EXPECT_LE(ps.size(), 50u);
    for (const auto& p : ps) {
      for (const ArcId a : p.arcs) EXPECT_TRUE(tg.is_active(a));
      EXPECT_EQ(path_sink(tg.netlist(), p), o);
    }
  }
}

TEST(SuspectArcs, UnionOfConesMatchesManualCheck) {
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  const PatternPair pp{{false, true}, {true, true}};
  const TransitionGraph tg(sim, lev, pp);
  const std::vector<GateId> outs = {c.g2};
  const auto suspects = suspect_arcs_for_outputs(tg, outs);
  EXPECT_TRUE(suspects[c.nl.arc_of(c.g1, 0)]);
  EXPECT_TRUE(suspects[c.nl.arc_of(c.g2, 0)]);
  EXPECT_FALSE(suspects[c.nl.arc_of(c.g1, 1)]);
}

// ---------------------------------------------------------------------------
// Exhaustive verification on c17: for every one of the 32x32 pattern
// pairs, the transition graph's claims are checked against brute force.
TEST(ExhaustiveC17, TransitionGraphMatchesBruteForce) {
  const auto nl = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);

  std::size_t active_arcs_total = 0;
  for (unsigned m1 = 0; m1 < 32; ++m1) {
    for (unsigned m2 = 0; m2 < 32; ++m2) {
      PatternPair pp;
      pp.v1.resize(5);
      pp.v2.resize(5);
      for (unsigned i = 0; i < 5; ++i) {
        pp.v1[i] = (m1 >> i) & 1;
        pp.v2[i] = (m2 >> i) & 1;
      }
      const paths::TransitionGraph tg(sim, lev, pp);
      const auto val1 = sim.simulate_single(pp.v1);
      const auto val2 = sim.simulate_single(pp.v2);
      for (GateId g = 0; g < nl.gate_count(); ++g) {
        // 1. toggles() is exactly the value change.
        ASSERT_EQ(tg.toggles(g), val1[g] != val2[g]);
        ASSERT_EQ(tg.initial_value(g), val1[g]);
        ASSERT_EQ(tg.final_value(g), val2[g]);
        if (!tg.toggles(g) || !is_combinational(nl.gate(g).type)) continue;
        // 2. Active fanins are toggling, and the min-rule applies exactly
        //    when some input settles at the controlling value (NAND: 0).
        const auto& act = tg.active_fanins(g);
        ASSERT_FALSE(act.empty());
        bool some_ctrl = false;
        for (const GateId f : nl.gate(g).fanins) some_ctrl |= !val2[f];
        ASSERT_EQ(tg.rule(g) == paths::ArrivalRule::kMinOverActive,
                  some_ctrl);
        for (const auto a : act) {
          const auto& arc = nl.arc(a);
          const GateId f = nl.gate(arc.gate).fanins[arc.pin];
          ASSERT_TRUE(tg.toggles(f));
          if (some_ctrl) {
            // Min rule: active inputs toggled TO the controlling value.
            ASSERT_FALSE(val2[f]);
            ASSERT_TRUE(val1[f]);
          }
          ++active_arcs_total;
        }
      }
      // 3. Every active path enumerated ends at the output and uses only
      //    active arcs (spot check when an output toggles).
      for (const GateId o : nl.outputs()) {
        if (!tg.toggles(o)) continue;
        for (const auto& path : paths::enumerate_active_paths(tg, o, 16)) {
          ASSERT_TRUE(paths::is_valid_path(nl, path));
          for (const auto a : path.arcs) ASSERT_TRUE(tg.is_active(a));
        }
      }
    }
  }
  EXPECT_GT(active_arcs_total, 1000u);  // the sweep exercised real activity
}

}  // namespace
}  // namespace sddd::paths
