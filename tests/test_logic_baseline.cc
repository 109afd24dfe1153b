// Tests for the traditional logic-domain (gross-delay dictionary)
// diagnosis baseline, whose cone-row counts are also checked against the
// per-cell loop of logic_baseline_oracle.h.
#include <gtest/gtest.h>

#include "logic_baseline_oracle.h"
#include "atpg/pdf_atpg.h"
#include "diagnosis/logic_baseline.h"
#include "eval/experiment.h"
#include "logicsim/bitsim.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "paths/transition_graph.h"
#include "stats/rng.h"

namespace sddd::diagnosis {
namespace {

using netlist::ArcId;
using netlist::GateId;
using netlist::Levelization;
using netlist::Netlist;

struct BaselineFixture {
  Netlist nl;
  Levelization lev;
  logicsim::BitSimulator sim;
  std::vector<logicsim::PatternPair> patterns;

  BaselineFixture()
      : nl([] {
          netlist::SynthSpec spec;
          spec.n_inputs = 12;
          spec.n_outputs = 8;
          spec.n_gates = 90;
          spec.depth = 9;
          spec.seed = 901;
          return netlist::synthesize(spec);
        }()),
        lev(nl),
        sim(nl, lev) {
    stats::Rng rng(51);
    for (int i = 0; i < 6; ++i) {
      patterns.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
  }
};

TEST(LogicBaseline, SignatureMatchesCones) {
  BaselineFixture f;
  const LogicBaselineDiagnoser baseline(f.sim, f.lev);
  for (ArcId a = 3; a < f.nl.arc_count(); a += 41) {
    const auto sig = baseline.signature(f.patterns, a);
    ASSERT_EQ(sig.size(), f.nl.outputs().size());
    for (std::size_t j = 0; j < f.patterns.size(); ++j) {
      const paths::TransitionGraph tg(f.sim, f.lev, f.patterns[j]);
      for (std::size_t i = 0; i < f.nl.outputs().size(); ++i) {
        const auto cone = tg.cone_to_output(f.nl.outputs()[i]);
        EXPECT_EQ(sig[i][j], static_cast<bool>(cone[a]));
      }
    }
  }
}

TEST(LogicBaseline, PerfectGrossDefectRanksFirst) {
  // If the chip behaves EXACTLY like the gross-delay prediction of some
  // arc (fails every cell the arc can reach), that arc must rank with
  // Hamming distance 0... up to ties with logically equivalent arcs.
  BaselineFixture f;
  const LogicBaselineDiagnoser baseline(f.sim, f.lev);
  // Pick an arc with a non-empty signature.
  for (ArcId a = 0; a < f.nl.arc_count(); ++a) {
    const auto sig = baseline.signature(f.patterns, a);
    std::size_t ones = 0;
    for (const auto& row : sig) {
      for (const bool b : row) ones += b ? 1U : 0U;
    }
    if (ones == 0) continue;
    BehaviorMatrix B(f.nl.outputs().size(), f.patterns.size());
    for (std::size_t i = 0; i < sig.size(); ++i) {
      for (std::size_t j = 0; j < f.patterns.size(); ++j) {
        B.set(i, j, sig[i][j]);
      }
    }
    const auto ranked = baseline.diagnose(f.patterns, B);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().hamming, 0u);
    bool found = false;
    for (const auto& r : ranked) {
      if (r.hamming != 0) break;
      found |= (r.arc == a);
    }
    EXPECT_TRUE(found) << "arc " << a << " not among the distance-0 leaders";
    return;
  }
  FAIL() << "no arc with non-empty signature";
}

TEST(LogicBaseline, RankedByNondecreasingHamming) {
  BaselineFixture f;
  const LogicBaselineDiagnoser baseline(f.sim, f.lev);
  BehaviorMatrix B(f.nl.outputs().size(), f.patterns.size());
  B.set(0, 0, true);
  B.set(3, 2, true);
  const auto ranked = baseline.diagnose(f.patterns, B);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].hamming, ranked[i].hamming);
  }
}

TEST(LogicBaseline, EmptyBehaviorYieldsNoSuspects) {
  BaselineFixture f;
  const LogicBaselineDiagnoser baseline(f.sim, f.lev);
  const BehaviorMatrix B(f.nl.outputs().size(), f.patterns.size());
  EXPECT_TRUE(baseline.diagnose(f.patterns, B).empty());
}

// The ranking from cone-row counts equals the per-cell loop's, arc for
// arc and distance for distance, on both stand-ins: for a chip that fails
// exactly as some arc's gross-delay prediction, for sparse random
// failures, and for one failing cell.
TEST(LogicBaseline, ConeRowCountsMatchPerCellCones) {
  for (const char* name : {"s1196", "s9234"}) {
    const Netlist nl =
        netlist::make_standin(*netlist::find_profile(name), 0.35, 7);
    const Levelization lev(nl);
    const logicsim::BitSimulator sim(nl, lev);
    const LogicBaselineDiagnoser baseline(sim, lev);
    stats::Rng rng(77);
    std::vector<logicsim::PatternPair> patterns;
    for (int j = 0; j < 8; ++j) {
      patterns.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
    const std::size_t n_out = nl.outputs().size();
    std::vector<BehaviorMatrix> chips;
    const auto sig = baseline.signature(patterns, nl.arc_count() / 3);
    BehaviorMatrix gross(n_out, patterns.size());
    for (std::size_t i = 0; i < n_out; ++i) {
      for (std::size_t j = 0; j < patterns.size(); ++j) {
        gross.set(i, j, sig[i][j]);
      }
    }
    chips.push_back(gross);
    BehaviorMatrix sparse(n_out, patterns.size());
    for (std::size_t i = 0; i < n_out; ++i) {
      for (std::size_t j = 0; j < patterns.size(); ++j) {
        sparse.set(i, j, rng.below(20) == 0);
      }
    }
    chips.push_back(sparse);
    BehaviorMatrix one(n_out, patterns.size());
    one.set(n_out / 2, 3, true);
    chips.push_back(one);
    for (const BehaviorMatrix& B : chips) {
      const auto got = baseline.diagnose(patterns, B);
      const auto want = test_oracle::oracle_logic_ranking(sim, lev, patterns, B);
      ASSERT_EQ(got.size(), want.size()) << name;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].arc, want[k].arc) << name << " rank " << k;
        EXPECT_EQ(got[k].hamming, want[k].hamming) << name << " rank " << k;
      }
    }
  }
}

TEST(LogicBaseline, ExperimentRecordsBaselineRanks) {
  netlist::SynthSpec spec;
  spec.n_inputs = 16;
  spec.n_outputs = 10;
  spec.n_gates = 120;
  spec.depth = 10;
  spec.seed = 902;
  const auto nl = netlist::synthesize(spec);
  eval::ExperimentConfig config;
  config.mc_samples = 80;
  config.n_chips = 6;
  config.seed = 31;
  const auto with = eval::run_diagnosis_experiment(nl, config);
  bool any_rank = false;
  for (const auto& t : with.trials) {
    if (t.failed_test && t.logic_baseline_rank >= 0) any_rank = true;
  }
  EXPECT_TRUE(any_rank);
  EXPECT_GE(with.logic_baseline_success_rate(1000), 0.5);

  config.include_logic_baseline = false;
  const auto without = eval::run_diagnosis_experiment(nl, config);
  for (const auto& t : without.trials) {
    EXPECT_EQ(t.logic_baseline_rank, -1);
  }
  EXPECT_DOUBLE_EQ(without.logic_baseline_success_rate(1000), 0.0);
}

}  // namespace
}  // namespace sddd::diagnosis
