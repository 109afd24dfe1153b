// Tests for the static diagnosability analysis (DIAG001..DIAG006): the
// sensitization facts (ambiguity groups, dominance, dead arcs, redundant
// patterns, coverage), the DIAG rule pack and its DICT005 cross-link, the
// machine-readable report, and the suspect collapse that the
// diagnosability report licenses (bit-identical ranks, fewer phi evals).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analysis_graph.h"
#include "analysis/analyzer.h"
#include "analysis/diagnosability_rules.h"
#include "analysis/dictionary_rules.h"
#include "analysis/pass.h"
#include "eval/experiment.h"
#include "logicsim/bitsim.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "netlist/synth.h"
#include "runtime/parallel_for.h"
#include "timing/celllib.h"
#include "timing/delay_model.h"

#ifndef SDDD_TEST_DATA_DIR
#define SDDD_TEST_DATA_DIR "tests/data"
#endif

namespace sddd::analysis {
namespace {

/// Owns everything a DiagnosabilitySubject borrows.  Patterns are supplied
/// explicitly by each test, so the expected facts are derivable by hand.
struct SubjectFixture {
  explicit SubjectFixture(netlist::Netlist netlist, bool with_model = false)
      : nl(std::move(netlist)), lev(nl), logic_sim(nl, lev) {
    if (with_model) model = std::make_unique<timing::ArcDelayModel>(nl, lib);
    subject.netlist = &nl;
    subject.lev = &lev;
    subject.logic_sim = &logic_sim;
    subject.delay_model = model.get();
  }

  void add_pattern(std::vector<bool> v1, std::vector<bool> v2) {
    subject.patterns.push_back(
        logicsim::PatternPair{std::move(v1), std::move(v2)});
  }

  SensitizationFacts facts() const {
    return compute_sensitization_facts(subject);
  }

  Report run() const {
    AnalysisInput in;
    in.diagnosability = &subject;
    return Analyzer::with_default_rules().run(in);
  }

  netlist::Netlist nl;
  netlist::Levelization lev;
  timing::StatisticalCellLibrary lib;
  std::unique_ptr<timing::ArcDelayModel> model;
  logicsim::BitSimulator logic_sim;
  DiagnosabilitySubject subject;
};

std::string data_path(const char* file) {
  return std::string(SDDD_TEST_DATA_DIR) + "/" + file;
}

// A single path a -> u -> v: both arcs lie on the same observable cone
// under every pattern, so they are one provable ambiguity group.
TEST(SensitizationFacts, ChainArcsFormOneAmbiguityGroup) {
  netlist::Netlist nl("chain");
  const auto a = nl.add_input("a");
  const auto u = nl.add_gate(netlist::CellType::kNot, "u", {a});
  const auto v = nl.add_gate(netlist::CellType::kNot, "v", {u});
  nl.add_output(v);
  nl.freeze();
  SubjectFixture fx(std::move(nl));
  fx.add_pattern({false}, {true});
  fx.add_pattern({true}, {false});

  const SensitizationFacts facts = fx.facts();
  const auto arc_au = fx.nl.arc_of(u, 0);
  const auto arc_uv = fx.nl.arc_of(v, 0);
  ASSERT_EQ(facts.groups.size(), 1u);
  EXPECT_EQ(facts.groups[0].arcs,
            (std::vector<netlist::ArcId>{arc_au, arc_uv}));
  EXPECT_EQ(facts.groups[0].coverage, 2u);
  EXPECT_EQ(facts.group_of[arc_au], 0);
  EXPECT_EQ(facts.group_of[arc_uv], 0);
  EXPECT_TRUE(facts.dead_arcs.empty());
  EXPECT_DOUBLE_EQ(facts.coverage_ratio, 1.0);

  const Report report = fx.run();
  EXPECT_TRUE(report.has_rule(kRuleAmbiguityGroup));
  EXPECT_FALSE(report.has_rule(kRuleDeadSuspect));
  EXPECT_EQ(report.error_count(), 0u);
}

// Reconvergence-free OR: each input arc is observed under only its own
// pattern while u->o is observed under both, so both input arcs are
// structurally dominated by u->o (DIAG002, info severity).
TEST(SensitizationFacts, FanInArcsAreDominatedByStemArc) {
  netlist::Netlist nl("dom");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto u = nl.add_gate(netlist::CellType::kOr, "u", {a, b});
  const auto o = nl.add_gate(netlist::CellType::kNot, "o", {u});
  nl.add_output(o);
  nl.freeze();
  SubjectFixture fx(std::move(nl));
  fx.add_pattern({false, false}, {true, false});  // toggles a only
  fx.add_pattern({false, false}, {false, true});  // toggles b only

  const SensitizationFacts facts = fx.facts();
  const auto arc_au = fx.nl.arc_of(u, 0);
  const auto arc_bu = fx.nl.arc_of(u, 1);
  const auto arc_uo = fx.nl.arc_of(o, 0);
  EXPECT_TRUE(facts.groups.empty());  // all three rows are distinct
  ASSERT_EQ(facts.dominance.size(), 2u);
  EXPECT_EQ(facts.dominance_found, 2u);
  for (const auto& pair : facts.dominance) {
    EXPECT_TRUE(pair.dominated == arc_au || pair.dominated == arc_bu);
    EXPECT_EQ(pair.dominator, arc_uo);
  }

  const Report report = fx.run();
  EXPECT_TRUE(report.has_rule(kRuleDominatedSuspect));
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_EQ(report.warning_count(), 0u);  // DIAG002 is info severity
}

// Dead-suspect fixture: the pattern set never toggles b or c, so the arcs
// they feed are statically dead and the coverage ratio is 2/4 - both
// DIAG003 and DIAG006 must fire.
TEST(SensitizationFacts, DeadSuspectFixture) {
  auto nl = netlist::parse_bench_file(data_path("diag_dead.bench"));
  SubjectFixture fx(std::move(nl));
  // a: rising then falling; b held 1, c held 0 throughout.
  fx.add_pattern({false, true, false}, {true, true, false});
  fx.add_pattern({true, true, false}, {false, true, false});

  const SensitizationFacts facts = fx.facts();
  const auto u = fx.nl.find("u");
  const auto o = fx.nl.find("o");
  const auto arc_bu = fx.nl.arc_of(u, 1);
  const auto arc_co = fx.nl.arc_of(o, 1);
  EXPECT_EQ(facts.dead_arcs,
            (std::vector<netlist::ArcId>{arc_bu, arc_co}));
  EXPECT_EQ(facts.pattern_coverage[arc_bu], 0u);
  EXPECT_EQ(facts.pattern_coverage[fx.nl.arc_of(u, 0)], 2u);
  EXPECT_DOUBLE_EQ(facts.coverage_ratio, 0.5);

  const Report report = fx.run();
  EXPECT_TRUE(report.has_rule(kRuleDeadSuspect));
  EXPECT_TRUE(report.has_rule(kRuleCoverageRatio));
  EXPECT_EQ(report.error_count(), 0u);

  const std::string json =
      diagnosability_report_json(fx.subject, facts);
  EXPECT_NE(json.find("\"coverage_ratio\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"dead_arcs\": [" + std::to_string(arc_bu)),
            std::string::npos);
}

// Redundant-pattern fixture: pattern 2 repeats pattern 0's launch/capture
// pair, so both produce identical observability columns (DIAG004).
TEST(SensitizationFacts, RedundantPatternFixture) {
  auto nl = netlist::parse_bench_file(data_path("diag_redundant.bench"));
  SubjectFixture fx(std::move(nl));
  fx.add_pattern({false, true}, {true, true});  // toggles a
  fx.add_pattern({true, false}, {true, true});  // toggles b
  fx.add_pattern({false, true}, {true, true});  // repeats pattern 0

  const SensitizationFacts facts = fx.facts();
  ASSERT_EQ(facts.redundant_patterns.size(), 1u);
  EXPECT_EQ(facts.redundant_patterns[0],
            (std::vector<std::size_t>{0u, 2u}));

  const Report report = fx.run();
  EXPECT_TRUE(report.has_rule(kRuleRedundantPattern));
  EXPECT_EQ(report.error_count(), 0u);
}

// Two disjoint inverter chains make two ambiguity groups whose analytic
// Clark-SSTA signatures live on different outputs: the separability sweep
// must compute a strictly positive L1 distance for both (DIAG005 facts).
TEST(SensitizationFacts, AnalyticSeparabilityOfDisjointChains) {
  netlist::Netlist nl("twochains");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto u = nl.add_gate(netlist::CellType::kNot, "u", {a});
  const auto o1 = nl.add_gate(netlist::CellType::kNot, "o1", {u});
  const auto v = nl.add_gate(netlist::CellType::kNot, "v", {b});
  const auto o2 = nl.add_gate(netlist::CellType::kNot, "o2", {v});
  nl.add_output(o1);
  nl.add_output(o2);
  nl.freeze();
  SubjectFixture fx(std::move(nl), /*with_model=*/true);
  fx.add_pattern({false, false}, {true, true});  // toggles both chains

  const SensitizationFacts facts = fx.facts();
  ASSERT_EQ(facts.groups.size(), 2u);
  ASSERT_EQ(facts.group_min_separation.size(), 2u);
  EXPECT_GT(facts.group_min_separation[0], 0.0);
  EXPECT_GT(facts.group_min_separation[1], 0.0);

  // Both groups entered the sweep, so no report entry may read null.
  const std::string json = diagnosability_report_json(fx.subject, facts);
  EXPECT_NE(json.find("\"min_separation\": "), std::string::npos);
  EXPECT_EQ(json.find("\"min_separation\": null"), std::string::npos);
}

// DICT005 <-> DIAG001 agreement on a shared fixture: a dictionary whose
// duplicate-signature class is labeled with the arcs of the structural
// ambiguity group must cross-link its finding to that group.
TEST(DiagnosabilityRules, Dict005CrossLinksToAmbiguityGroup) {
  netlist::Netlist nl("xlink");
  const auto a = nl.add_input("a");
  const auto u = nl.add_gate(netlist::CellType::kNot, "u", {a});
  const auto v = nl.add_gate(netlist::CellType::kNot, "v", {u});
  nl.add_output(v);
  nl.freeze();
  SubjectFixture fx(std::move(nl));
  fx.add_pattern({false}, {true});

  DictionarySubject dict;
  dict.n_outputs = 1;
  dict.n_patterns = 1;
  dict.m_crt = {{0.25}};
  DictionarySubject::Signature sig;
  sig.label = "arc " + std::to_string(fx.nl.arc_of(u, 0));
  sig.s_crt = {{0.5}};
  dict.signatures.push_back(sig);
  sig.label = "arc " + std::to_string(fx.nl.arc_of(v, 0));
  dict.signatures.push_back(sig);  // identical matrix: one DICT005 class

  AnalysisInput in;
  in.diagnosability = &fx.subject;
  in.dictionary = &dict;
  const Report report = Analyzer::with_default_rules().run(in);
  EXPECT_TRUE(report.has_rule(kRuleAmbiguityGroup));
  EXPECT_TRUE(report.has_rule(kRuleDuplicateSignature));
  const std::string text = report.to_text();
  EXPECT_NE(text.find("matches ambiguity group #0 (DIAG001)"),
            std::string::npos);
}

TEST(DiagnosabilityRules, ReportIsIdenticalAcrossThreadCounts) {
  auto nl = netlist::parse_bench_file(data_path("diag_dead.bench"));
  SubjectFixture fx(std::move(nl), /*with_model=*/true);
  fx.add_pattern({false, true, false}, {true, true, false});
  fx.add_pattern({true, true, false}, {false, true, false});

  const std::size_t before = runtime::thread_count();
  runtime::set_thread_count(1);
  const std::string serial = fx.run().to_json();
  runtime::set_thread_count(4);
  const std::string parallel = fx.run().to_json();
  runtime::set_thread_count(before);
  EXPECT_EQ(serial, parallel);
}

// Rejecting unfrozen netlists keeps every downstream consumer (lint,
// rules, report) on the frozen arc numbering.
TEST(SensitizationFacts, RequiresFrozenNetlist) {
  netlist::Netlist nl("unfrozen");
  const auto a = nl.add_input("a");
  const auto g = nl.add_gate(netlist::CellType::kNot, "g", {a});
  nl.add_output(g);
  DiagnosabilitySubject subject;
  subject.netlist = &nl;  // unfrozen: rejected before lev/sim are touched
  EXPECT_THROW(compute_sensitization_facts(subject), std::invalid_argument);
}

// Suspect collapse (the optimization the diagnosability report licenses),
// always on: every pattern's unsensitized suspects share one phi
// evaluation, so diag.phi_evals stays below one per (suspect, pattern),
// and ranks are bit-identical at 1 and 4 threads.  (The column-level
// check - no column built for an unsensitized suspect - is
// SignatureCache.NoColumnBuiltForUnsensitizedSuspects.)
TEST(SuspectCollapse, BitIdenticalRanksWithFewerPhiEvals) {
  netlist::SynthSpec spec;
  spec.name = "collapseckt";
  spec.n_inputs = 14;
  spec.n_outputs = 8;
  spec.n_gates = 90;
  spec.depth = 8;
  spec.seed = 31;
  const auto nl = netlist::synthesize(spec);

  eval::ExperimentConfig config;
  config.mc_samples = 60;
  config.n_chips = 4;
  config.max_suspects = 100;
  config.pattern_config.paths_per_site = 2;
  config.pattern_config.site_search_tries = 64;
  config.seed = 11;

  const std::size_t before = runtime::thread_count();
  runtime::set_thread_count(1);
  const auto serial = eval::run_diagnosis_experiment(nl, config);
  runtime::set_thread_count(4);
  const auto parallel = eval::run_diagnosis_experiment(nl, config);
  runtime::set_thread_count(before);
  ASSERT_GT(serial.diagnosable_trials(), 0u);

  ASSERT_EQ(parallel.trials.size(), serial.trials.size());
  EXPECT_DOUBLE_EQ(parallel.clk, serial.clk);
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    const auto& s = serial.trials[i];
    const auto& p = parallel.trials[i];
    EXPECT_EQ(p.chip.defect_arc, s.chip.defect_arc);
    EXPECT_EQ(p.n_suspects, s.n_suspects);
    EXPECT_EQ(p.rank_of_true, s.rank_of_true);
    EXPECT_EQ(p.logic_baseline_rank, s.logic_baseline_rank);
    if (s.failed_test) pairs += s.n_suspects * s.n_patterns;
  }
  for (const auto* r : {&serial, &parallel}) {
    EXPECT_GT(r->phases.phi_evals, 0u);
    EXPECT_LT(r->phases.phi_evals, pairs);
    // Columns are built for sensitized pairs only.
    EXPECT_LT(r->phases.sig_cache_misses, pairs);
  }
}

}  // namespace
}  // namespace sddd::analysis
