// Unit tests for path machinery: path validity, transition graphs
// (toggles, active arcs, min/max rules), cones, path enumeration and
// heaviest-path selection, plus an exhaustive brute-force check of the
// transition graph and of the 64-lane activity kernel on c17 (all 1024
// pattern pairs) and a lane-by-lane check of the kernel against the scalar
// oracle (activity_oracle.h) on stand-ins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "activity_oracle.h"
#include "atpg/pdf_atpg.h"
#include "diagnosis/diagnoser.h"
#include "logicsim/bitsim.h"
#include "netlist/bench_io.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "paths/path.h"
#include "paths/path_enum.h"
#include "paths/transition_graph.h"
#include "paths/transition_words.h"
#include "stats/rng.h"
#include "timing/celllib.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

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
  // The suspect universe of one failing cell: Algorithm E.1 step 1 over
  // the output's cone row.
  const Chain c;
  const Levelization lev(c.nl);
  const BitSimulator sim(c.nl, lev);
  const PatternPair pp{{false, true}, {true, true}};
  const TransitionGraph tg(sim, lev, pp);
  std::vector<std::uint64_t> row(tg.cone_row_words());
  tg.cone_row(c.g2, row);
  const std::uint64_t* rows[] = {row.data()};
  const auto suspects =
      diagnosis::suspects_from_cone_rows(rows, c.nl.arc_count(), 0);
  EXPECT_EQ(suspects, (std::vector<ArcId>{c.nl.arc_of(c.g1, 0),
                                          c.nl.arc_of(c.g2, 0)}));
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

// The same brute force lane by lane: all 1,024 c17 pairs, 64 per sweep.
TEST(ExhaustiveC17, TransitionWordsMatchBruteForce) {
  const auto nl = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  TransitionWords words(sim);
  std::size_t min_lanes = 0;
  for (unsigned block = 0; block < 16; ++block) {
    std::vector<std::uint64_t> w1(5, 0);
    std::vector<std::uint64_t> w2(5, 0);
    for (unsigned lane = 0; lane < 64; ++lane) {
      const unsigned pair = block * 64 + lane;
      for (unsigned i = 0; i < 5; ++i) {
        w1[i] |= static_cast<std::uint64_t>(((pair / 32) >> i) & 1U) << lane;
        w2[i] |= static_cast<std::uint64_t>(((pair % 32) >> i) & 1U) << lane;
      }
    }
    words.simulate(w1, w2);
    for (unsigned lane = 0; lane < 64; ++lane) {
      const PatternPair pp = words.pattern(lane);
      const unsigned pair = block * 64 + lane;
      for (unsigned i = 0; i < 5; ++i) {
        ASSERT_EQ(pp.v1[i], (((pair / 32) >> i) & 1U) != 0);
        ASSERT_EQ(pp.v2[i], (((pair % 32) >> i) & 1U) != 0);
      }
      const auto val1 = sim.simulate_single(pp.v1);
      const auto val2 = sim.simulate_single(pp.v2);
      const auto bit = [lane](std::uint64_t w) {
        return ((w >> lane) & 1U) != 0;
      };
      for (GateId g = 0; g < nl.gate_count(); ++g) {
        const bool toggles = val1[g] != val2[g];
        ASSERT_EQ(bit(words.toggles(g)), toggles);
        ASSERT_EQ(bit(words.launch(g)), val1[g]);
        ASSERT_EQ(bit(words.capture(g)), val2[g]);
        const auto& fanins = nl.gate(g).fanins;
        // c17 is all NAND: the output settles controlled when some input
        // settles at 0, and then only inputs that fell to 0 are active.
        bool some_ctrl = false;
        for (const GateId f : fanins) some_ctrl |= !val2[f];
        const bool min_rule = toggles && some_ctrl;
        ASSERT_EQ(bit(words.min_rule(g)), min_rule);
        min_lanes += min_rule ? 1U : 0U;
        for (std::uint32_t pin = 0; pin < fanins.size(); ++pin) {
          const GateId f = fanins[pin];
          const bool active =
              toggles && val1[f] != val2[f] && (!min_rule || !val2[f]);
          ASSERT_EQ(bit(words.active(nl.arc_of(g, pin))), active);
        }
      }
    }
  }
  EXPECT_GT(min_lanes, 1000u);
}

/// Every claim of lane `lane` against the scalar oracle graph of its pair.
void expect_lane_matches(const TransitionWords& words, unsigned lane,
                         const test_oracle::OracleGraph& want) {
  const Netlist& nl = words.netlist();
  const auto bit = [lane](std::uint64_t w) { return ((w >> lane) & 1U) != 0; };
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    ASSERT_EQ(bit(words.toggles(g)), want.toggles[g]) << "gate " << g;
    ASSERT_EQ(bit(words.min_rule(g)), want.min_rule[g]) << "gate " << g;
    ASSERT_EQ(bit(words.launch(g)), want.v1[g]) << "gate " << g;
    ASSERT_EQ(bit(words.capture(g)), want.v2[g]) << "gate " << g;
  }
  for (ArcId a = 0; a < nl.arc_count(); ++a) {
    ASSERT_EQ(bit(words.active(a)), want.active[a]) << "arc " << a;
  }
}

/// A TransitionGraph against the oracle: values, rules and the flat
/// active fanins in pin order.
void expect_graph_matches(const TransitionGraph& tg,
                          const test_oracle::OracleGraph& want) {
  const Netlist& nl = tg.netlist();
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    ASSERT_EQ(tg.toggles(g), want.toggles[g]) << "gate " << g;
    ASSERT_EQ(tg.initial_value(g), want.v1[g]) << "gate " << g;
    ASSERT_EQ(tg.final_value(g), want.v2[g]) << "gate " << g;
    ASSERT_EQ(tg.rule(g) == ArrivalRule::kMinOverActive, want.min_rule[g]);
    const auto act = tg.active_fanins(g);
    ASSERT_TRUE(std::equal(act.begin(), act.end(),
                           want.active_fanins[g].begin(),
                           want.active_fanins[g].end()))
        << "gate " << g;
  }
  for (ArcId a = 0; a < nl.arc_count(); ++a) {
    ASSERT_EQ(tg.is_active(a), want.active[a]) << "arc " << a;
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(y);
         });
}

class TransitionWordsOracle : public ::testing::TestWithParam<const char*> {};

// Lane widths 1, 37 and 64 on a stand-in: every lane's words, its one-lane
// graph and its nominal arrivals equal the scalar oracle's; lanes past the
// width hold the all-zero pair and stay quiet.
TEST_P(TransitionWordsOracle, LanesMatchScalarGraphs) {
  const Netlist nl =
      netlist::make_standin(*netlist::find_profile(GetParam()), 0.15, 7);
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  TransitionWords words(sim);
  stats::Rng rng(41);
  std::size_t active_arcs = 0;
  for (const std::size_t width : {1U, 37U, 64U}) {
    std::vector<PatternPair> pairs;
    for (std::size_t k = 0; k < width; ++k) {
      pairs.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
    words.simulate(pairs);
    for (unsigned lane = 0; lane < 64; ++lane) {
      if (lane >= width) {
        for (GateId g = 0; g < nl.gate_count(); ++g) {
          ASSERT_EQ((words.toggles(g) >> lane) & 1U, 0U);
        }
        continue;
      }
      const test_oracle::OracleGraph want(sim, pairs[lane]);
      expect_lane_matches(words, lane, want);
      const auto pattern = words.pattern(lane);
      ASSERT_EQ(pattern.v1, pairs[lane].v1);
      ASSERT_EQ(pattern.v2, pairs[lane].v2);
      expect_graph_matches(TransitionGraph(words, lane, lev), want);
      const TransitionGraph tg(sim, lev, pairs[lane]);
      expect_graph_matches(tg, want);
      const auto arr = test_oracle::oracle_nominal_arrivals(want, model, lev);
      EXPECT_TRUE(same_bits(
          timing::nominal_arrivals(words.lane(lane), model, lev), arr));
      EXPECT_TRUE(same_bits(timing::nominal_arrivals(tg, model, lev), arr));
      active_arcs += std::count(want.active.begin(), want.active.end(), true);
    }
  }
  EXPECT_GT(active_arcs, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Standins, TransitionWordsOracle, ::testing::Values("s1196", "s9234"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

}  // namespace
}  // namespace sddd::paths
