// Unit tests for the two-valued bit-parallel simulator and the ternary
// (0/1/X) simulator, including cross-checks between the two, gate-level
// truth-table verification and how every simulator, PODEM included, reads
// tied constants.
#include <gtest/gtest.h>

#include "atpg/pdf_atpg.h"
#include "atpg/podem.h"
#include "logicsim/bitsim.h"
#include "logicsim/ternary.h"
#include "netlist/bench_io.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "paths/transition_words.h"
#include "stats/rng.h"

namespace sddd::logicsim {
namespace {

using netlist::CellType;
using netlist::GateId;
using netlist::Levelization;
using netlist::Netlist;

TEST(EvalGateWords, TruthTables) {
  const std::uint64_t a = 0b1100;
  const std::uint64_t b = 0b1010;
  const std::vector<std::uint64_t> ab = {a, b};
  EXPECT_EQ(eval_gate_words(CellType::kAnd, ab) & 0xF, 0b1000u);
  EXPECT_EQ(eval_gate_words(CellType::kNand, ab) & 0xF, 0b0111u);
  EXPECT_EQ(eval_gate_words(CellType::kOr, ab) & 0xF, 0b1110u);
  EXPECT_EQ(eval_gate_words(CellType::kNor, ab) & 0xF, 0b0001u);
  EXPECT_EQ(eval_gate_words(CellType::kXor, ab) & 0xF, 0b0110u);
  EXPECT_EQ(eval_gate_words(CellType::kXnor, ab) & 0xF, 0b1001u);
  const std::vector<std::uint64_t> just_a = {a};
  EXPECT_EQ(eval_gate_words(CellType::kBuf, just_a) & 0xF, 0b1100u);
  EXPECT_EQ(eval_gate_words(CellType::kNot, just_a) & 0xF, 0b0011u);
}

TEST(EvalGateWords, WideGates) {
  const std::vector<std::uint64_t> abc = {0b11110000, 0b11001100, 0b10101010};
  EXPECT_EQ(eval_gate_words(CellType::kAnd, abc) & 0xFF, 0b10000000u);
  EXPECT_EQ(eval_gate_words(CellType::kOr, abc) & 0xFF, 0b11111110u);
  EXPECT_EQ(eval_gate_words(CellType::kXor, abc) & 0xFF, 0b10010110u);
}

TEST(EvalGateWords, NonCombinationalThrows) {
  const std::vector<std::uint64_t> a = {0};
  EXPECT_THROW(eval_gate_words(CellType::kInput, a), std::logic_error);
  EXPECT_THROW(eval_gate_words(CellType::kDff, a), std::logic_error);
}

TEST(BitSimulator, C17KnownVectors) {
  const auto nl = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  // c17: 22 = NAND(10, 16), 23 = NAND(16, 19) with
  // 10=NAND(1,3), 11=NAND(3,6), 16=NAND(2,11), 19=NAND(11,7).
  // All-zero inputs: 10=1, 11=1, 16=1, 19=1 -> 22=0, 23=0.
  const Pattern zeros(5, false);
  auto values = sim.simulate_single(zeros);
  EXPECT_FALSE(values[nl.find("22")]);
  EXPECT_FALSE(values[nl.find("23")]);
  // All-one inputs: 10=0, 11=0, 16=1, 19=1 -> 22=1, 23=0.
  const Pattern ones(5, true);
  values = sim.simulate_single(ones);
  EXPECT_TRUE(values[nl.find("22")]);
  EXPECT_FALSE(values[nl.find("23")]);
}

// A tie cell simulates to its value in every simulator: VDD feeding an AND
// and GND feeding an OR leave y = a, and the tie never toggles, so no arc
// it drives is ever active.
TEST(BitSimulator, ConstantsSimulateToTheirValue) {
  struct Twin {
    const char* text;
    CellType tie;
    CellType gate;
  };
  const Twin twins[] = {
      {"INPUT(a)\nOUTPUT(y)\nk = VDD()\ny = AND(a, k)\n", CellType::kConst1,
       CellType::kAnd},
      {"INPUT(a)\nOUTPUT(y)\nk = GND()\ny = OR(a, k)\n", CellType::kConst0,
       CellType::kOr},
  };
  for (const Twin& twin : twins) {
    const Netlist nl = netlist::parse_bench_string(twin.text, "tie");
    const Levelization lev(nl);
    const BitSimulator sim(nl, lev);
    const TernarySimulator tsim(nl, lev);
    const GateId a = nl.inputs()[0];
    const GateId y = nl.outputs()[0];
    GateId k = 0;
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      if (nl.gate(g).type == twin.tie) k = g;
    }
    ASSERT_EQ(nl.gate(k).type, twin.tie) << twin.text;
    const bool tie_value = twin.tie == CellType::kConst1;
    // Lane 0: a = 0, lane 1: a = 1.
    const std::vector<std::uint64_t> pi = {0b10};
    const auto words = sim.simulate(pi);
    EXPECT_EQ(words[k], tie_value ? ~0ULL : 0ULL) << twin.text;
    EXPECT_EQ(words[y] & 0b11, 0b10U) << twin.text;
    EXPECT_EQ(eval_gate_words(twin.gate, std::vector<std::uint64_t>{
                                             words[a], words[k]}),
              words[y]);
    for (const bool value : {false, true}) {
      const auto tern = tsim.simulate(
          std::vector<Tern>{value ? Tern::k1 : Tern::k0});
      EXPECT_EQ(tern[k], tie_value ? Tern::k1 : Tern::k0) << twin.text;
      EXPECT_EQ(tern[y], value ? Tern::k1 : Tern::k0) << twin.text;
    }
    // Pairs 0->1, 1->0 and 1->1 in lanes 0..2: y toggles with a, the tie
    // never does, and only y's arc from a is ever active.
    paths::TransitionWords tw(sim);
    tw.simulate(std::vector<PatternPair>{
        {{false}, {true}}, {{true}, {false}}, {{true}, {true}}});
    EXPECT_EQ(tw.toggles(k), 0U) << twin.text;
    EXPECT_EQ(tw.toggles(y), 0b011U) << twin.text;
    for (std::uint32_t pin = 0; pin < 2; ++pin) {
      const netlist::ArcId arc = nl.arc_base(y) + pin;
      const bool from_tie = nl.gate(y).fanins[pin] == k;
      EXPECT_EQ(tw.active(arc), from_tie ? 0U : 0b011U) << twin.text;
    }
    // PODEM reads the tie as its value: y follows a, and the path a -> y
    // (its side input held non-controlling by the tie) has a test in both
    // polarities, non-robust and robust.
    const atpg::Podem podem(nl, lev);
    for (const bool value : {false, true}) {
      const auto sol =
          podem.solve(std::vector<atpg::Objective>{{y, value}});
      ASSERT_TRUE(sol.has_value()) << twin.text;
      EXPECT_EQ(sol->pi_values[0], value ? Tern::k1 : Tern::k0) << twin.text;
    }
    const atpg::PathDelayAtpg atpg(nl, lev);
    paths::Path path;
    for (std::uint32_t pin = 0; pin < 2; ++pin) {
      if (nl.gate(y).fanins[pin] == a) path.arcs = {nl.arc_base(y) + pin};
    }
    for (const bool rising : {false, true}) {
      for (const bool robust : {false, true}) {
        const auto templates = atpg.sensitize(path, rising, robust);
        ASSERT_TRUE(templates.has_value()) << twin.text;
        EXPECT_EQ(templates->v2[0], rising ? Tern::k1 : Tern::k0);
        EXPECT_EQ(templates->v1[0], rising ? Tern::k0 : Tern::k1);
        stats::Rng rng(3);
        const auto test = atpg.generate(path, rising, robust, rng);
        ASSERT_TRUE(test.has_value()) << twin.text;
        EXPECT_TRUE(test->activates) << twin.text;
      }
    }
  }
}

TEST(BitSimulator, RejectsSequentialNetlists) {
  const auto nl = netlist::parse_bench_string(netlist::s27_bench_text(), "s27");
  const Levelization lev(nl);
  EXPECT_THROW((BitSimulator{nl, lev}), std::invalid_argument);
}

TEST(BitSimulator, PackUnpackRoundTrip) {
  const auto nl = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  stats::Rng rng(5);
  std::vector<Pattern> patterns;
  for (int i = 0; i < 64; ++i) {
    Pattern p(5);
    for (auto&& bit : p) bit = rng.bernoulli(0.5);
    patterns.push_back(std::move(p));
  }
  const auto words = sim.simulate(sim.pack(patterns));
  for (unsigned k = 0; k < 64; ++k) {
    const auto single = sim.simulate_single(patterns[k]);
    const auto outs = sim.output_values(words, k);
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
      EXPECT_EQ(outs[i], single[nl.outputs()[i]]) << "pattern " << k;
    }
  }
}

TEST(BitSimulator, SizeValidation) {
  const auto nl = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
  const Levelization lev(nl);
  const BitSimulator sim(nl, lev);
  EXPECT_THROW((void)sim.simulate_single(Pattern(4, false)),
               std::invalid_argument);
  std::vector<std::uint64_t> too_few(4, 0);
  EXPECT_THROW((void)sim.simulate(too_few), std::invalid_argument);
}

TEST(Ternary, NotTruthTable) {
  EXPECT_EQ(tern_not(Tern::k0), Tern::k1);
  EXPECT_EQ(tern_not(Tern::k1), Tern::k0);
  EXPECT_EQ(tern_not(Tern::kX), Tern::kX);
}

TEST(Ternary, ControllingShortcut) {
  // AND with a 0 input is 0 even if the others are X.
  const std::vector<Tern> x0 = {Tern::kX, Tern::k0};
  EXPECT_EQ(eval_gate_tern(CellType::kAnd, x0), Tern::k0);
  EXPECT_EQ(eval_gate_tern(CellType::kNand, x0), Tern::k1);
  const std::vector<Tern> x1 = {Tern::kX, Tern::k1};
  EXPECT_EQ(eval_gate_tern(CellType::kOr, x1), Tern::k1);
  EXPECT_EQ(eval_gate_tern(CellType::kNor, x1), Tern::k0);
  // Without a controlling input, X dominates.
  const std::vector<Tern> xs = {Tern::kX, Tern::k1};
  EXPECT_EQ(eval_gate_tern(CellType::kAnd, xs), Tern::kX);
  EXPECT_EQ(eval_gate_tern(CellType::kXor, xs), Tern::kX);
}

TEST(Ternary, DefiniteInputsMatchBoolean) {
  for (const CellType t : {CellType::kAnd, CellType::kNand, CellType::kOr,
                           CellType::kNor, CellType::kXor, CellType::kXnor}) {
    for (int a = 0; a <= 1; ++a) {
      for (int b = 0; b <= 1; ++b) {
        const std::vector<Tern> in = {a ? Tern::k1 : Tern::k0,
                                      b ? Tern::k1 : Tern::k0};
        const std::vector<std::uint64_t> words = {
            a ? ~0ULL : 0ULL, b ? ~0ULL : 0ULL};
        const bool expect = (eval_gate_words(t, words) & 1ULL) != 0;
        EXPECT_EQ(eval_gate_tern(t, in), expect ? Tern::k1 : Tern::k0)
            << cell_type_name(t) << " " << a << b;
      }
    }
  }
}

TEST(TernarySimulator, FullyDefiniteMatchesBitSim) {
  netlist::SynthSpec spec;
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 70;
  spec.depth = 9;
  spec.seed = 41;
  const auto nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  const BitSimulator bsim(nl, lev);
  const TernarySimulator tsim(nl, lev);
  stats::Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    Pattern p(10);
    std::vector<Tern> t(10);
    for (std::size_t i = 0; i < 10; ++i) {
      const bool v = rng.bernoulli(0.5);
      p[i] = v;
      t[i] = v ? Tern::k1 : Tern::k0;
    }
    const auto bvals = bsim.simulate_single(p);
    const auto tvals = tsim.simulate(t);
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      ASSERT_NE(tvals[g], Tern::kX);
      EXPECT_EQ(tvals[g] == Tern::k1, bvals[g]) << "gate " << g;
    }
  }
}

TEST(TernarySimulator, XPropagatesConservatively) {
  // Property: if a ternary value is definite, it must equal the boolean
  // value for EVERY completion of the X inputs.
  const auto nl = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
  const Levelization lev(nl);
  const BitSimulator bsim(nl, lev);
  const TernarySimulator tsim(nl, lev);
  stats::Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Tern> t(5);
    for (auto& v : t) {
      const double u = rng.uniform01();
      v = u < 0.33 ? Tern::k0 : (u < 0.66 ? Tern::k1 : Tern::kX);
    }
    const auto tvals = tsim.simulate(t);
    // Enumerate all completions of the X positions.
    std::vector<std::size_t> xpos;
    for (std::size_t i = 0; i < 5; ++i) {
      if (t[i] == Tern::kX) xpos.push_back(i);
    }
    for (std::size_t mask = 0; mask < (1ULL << xpos.size()); ++mask) {
      Pattern p(5);
      for (std::size_t i = 0; i < 5; ++i) p[i] = (t[i] == Tern::k1);
      for (std::size_t j = 0; j < xpos.size(); ++j) {
        p[xpos[j]] = (mask >> j) & 1;
      }
      const auto bvals = bsim.simulate_single(p);
      for (GateId g = 0; g < nl.gate_count(); ++g) {
        if (tvals[g] != Tern::kX) {
          EXPECT_EQ(tvals[g] == Tern::k1, bvals[g])
              << "gate " << g << " completion " << mask;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sddd::logicsim
