// Tests for the static-analysis framework: the Report container, the three
// rule packs (netlist / statistical model / dictionary), the shared
// lint_netlist preflight, determinism of the parallel rule runner, and the
// SDDD_CHECK runtime-contract layer shared with the diagnosis pipeline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "obs/check.h"
#include "analysis/dictionary_rules.h"
#include "analysis/model_rules.h"
#include "analysis/netlist_rules.h"
#include "diagnosis/error_fn.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"
#include "runtime/parallel_for.h"

namespace sddd::analysis {
namespace {

Report run_on_netlist(const netlist::Netlist& nl) {
  AnalysisInput in;
  in.netlist = &nl;
  return Analyzer::with_default_rules().run(in);
}

Report run_on_correlation(const CorrelationSubject& subject) {
  AnalysisInput in;
  in.correlation = &subject;
  return Analyzer::with_default_rules().run(in);
}

Report run_on_dictionary(const DictionarySubject& subject) {
  AnalysisInput in;
  in.dictionary = &subject;
  return Analyzer::with_default_rules().run(in);
}

TEST(Report, CountsAndEmitters) {
  Report r;
  EXPECT_TRUE(r.empty());
  r.add("NET001", Severity::kError, "gate g", "broken \"badly\"");
  r.add("MOD002", Severity::kWarning, "arc 3", "flat");
  EXPECT_EQ(r.error_count(), 1u);
  EXPECT_EQ(r.warning_count(), 1u);
  EXPECT_TRUE(r.has_rule("NET001"));
  EXPECT_FALSE(r.has_rule("NET002"));

  const std::string text = r.to_text();
  EXPECT_NE(text.find("error NET001 gate g"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"rule_id\": \"NET001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("broken \\\"badly\\\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
}

TEST(NetlistRules, CleanCircuitHasNoFindings) {
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(o)
o = AND(a, b)
)");
  EXPECT_TRUE(run_on_netlist(nl).empty());
}

// Acceptance case: a floating net must produce NET003 at error severity,
// observable through the --json emitter.
TEST(NetlistRules, FloatingNetIsError) {
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(o)
o = AND(a, b)
dead = OR(a, b)
)");
  const Report report = run_on_netlist(nl);
  EXPECT_TRUE(report.has_rule(kRuleFloatingNet));
  EXPECT_GE(report.error_count(), 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"rule_id\": \"NET003\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("dead"), std::string::npos);
}

TEST(NetlistRules, UnusedInputIsOnlyWarning) {
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
INPUT(unused)
OUTPUT(o)
o = NOT(a)
)");
  const Report report = run_on_netlist(nl);
  EXPECT_TRUE(report.has_rule(kRuleFloatingNet));
  EXPECT_EQ(report.error_count(), 0u);
}

TEST(NetlistRules, CombinationalCycleIsError) {
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(o)
u = AND(a, w)
w = OR(u, b)
o = NAND(u, w)
)");
  const Report report = run_on_netlist(nl);
  EXPECT_TRUE(report.has_rule(kRuleCombinationalCycle));
  EXPECT_GE(report.error_count(), 1u);
}

TEST(NetlistRules, DffBreaksCycle) {
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
OUTPUT(o)
q = DFF(u)
u = AND(a, q)
o = NOT(u)
)");
  EXPECT_FALSE(run_on_netlist(nl).has_rule(kRuleCombinationalCycle));
}

TEST(NetlistRules, DuplicatePrimaryOutputIsError) {
  netlist::Netlist nl("dup");
  const auto a = nl.add_input("a");
  const auto g = nl.add_gate(netlist::CellType::kNot, "g", {a});
  nl.add_output(g);
  nl.add_output(g);
  const Report report = run_on_netlist(nl);
  EXPECT_TRUE(report.has_rule(kRuleMultiplyDriven));
  EXPECT_GE(report.error_count(), 1u);
}

TEST(NetlistRules, UndrivenFaninIsError) {
  netlist::Netlist nl("undriven");
  const auto a = nl.add_input("a");
  const auto g =
      nl.add_gate(netlist::CellType::kAnd, "g", {a, netlist::GateId{99}});
  nl.add_output(g);
  const Report report = run_on_netlist(nl);
  EXPECT_TRUE(report.has_rule(kRuleUndrivenNet));
  EXPECT_GE(report.error_count(), 1u);
}

TEST(NetlistRules, SelfFeedbackDffIsBrokenScanChain) {
  netlist::Netlist nl("selfloop");
  const auto a = nl.add_input("a");
  // A DFF feeding itself (gate id 1 = its own fanin) holds no scan path.
  const auto q = nl.add_gate(netlist::CellType::kDff, "q", {1});
  ASSERT_EQ(q, 1u);
  const auto g = nl.add_gate(netlist::CellType::kOr, "g", {a, q});
  nl.add_output(g);
  const Report report = run_on_netlist(nl);
  EXPECT_TRUE(report.has_rule(kRuleScanChain));
  EXPECT_GE(report.error_count(), 1u);
}

// Acceptance case: a non-PSD correlation matrix must produce MOD004 at
// error severity via the Cholesky probe.
TEST(ModelRules, NonPsdCorrelationIsError) {
  // Pairwise correlations of +/-0.9 with inconsistent signs: eigenvalue
  // 1 - 0.9 - 0.9 < 0, so no Cholesky factor exists.
  CorrelationSubject subject;
  subject.dim = 3;
  subject.matrix = {1.0, 0.9, 0.9,   //
                    0.9, 1.0, -0.9,  //
                    0.9, -0.9, 1.0};
  const Report report = run_on_correlation(subject);
  EXPECT_TRUE(report.has_rule(kRuleCorrelationNotPsd));
  EXPECT_GE(report.error_count(), 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"rule_id\": \"MOD004\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
}

TEST(ModelRules, PsdCorrelationIsClean) {
  CorrelationSubject subject;
  subject.dim = 3;
  subject.matrix = {1.0, 0.3, 0.3,  //
                    0.3, 1.0, 0.3,  //
                    0.3, 0.3, 1.0};
  EXPECT_TRUE(run_on_correlation(subject).empty());
}

TEST(ModelRules, AsymmetryAndShapeAreErrors) {
  CorrelationSubject asym;
  asym.dim = 2;
  asym.matrix = {1.0, 0.5,  //
                 0.2, 1.0};
  EXPECT_TRUE(run_on_correlation(asym).has_rule(kRuleCorrelationShape));

  CorrelationSubject ragged;
  ragged.dim = 3;
  ragged.matrix = {1.0, 0.0, 0.0, 1.0};  // 4 entries, dim^2 = 9
  const Report report = run_on_correlation(ragged);
  EXPECT_TRUE(report.has_rule(kRuleCorrelationShape));
  EXPECT_GE(report.error_count(), 1u);
}

DictionarySubject small_dictionary() {
  DictionarySubject subject;
  subject.n_outputs = 2;
  subject.n_patterns = 2;
  subject.m_crt = {{0.1, 0.2}, {0.3, 0.4}};
  DictionarySubject::Signature sig;
  sig.label = "arc 7";
  sig.s_crt = {{0.5, 0.0}, {0.0, 0.25}};
  subject.signatures.push_back(sig);
  return subject;
}

TEST(DictionaryRules, CleanDictionaryHasNoFindings) {
  EXPECT_TRUE(run_on_dictionary(small_dictionary()).empty());
}

// Acceptance case: an out-of-range S_crt entry must produce DICT002 at
// error severity, observable through the --json emitter.
TEST(DictionaryRules, OutOfRangeSignatureIsError) {
  auto subject = small_dictionary();
  subject.signatures[0].s_crt[1][0] = 1.5;
  const Report report = run_on_dictionary(subject);
  EXPECT_TRUE(report.has_rule(kRuleSignatureRange));
  EXPECT_GE(report.error_count(), 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"rule_id\": \"DICT002\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("arc 7"), std::string::npos);
}

TEST(DictionaryRules, OutOfRangeProbabilityIsError) {
  auto subject = small_dictionary();
  subject.m_crt[0][1] = -0.25;
  const Report report = run_on_dictionary(subject);
  EXPECT_TRUE(report.has_rule(kRuleProbabilityRange));
  EXPECT_GE(report.error_count(), 1u);
}

TEST(DictionaryRules, DimensionMismatchIsError) {
  auto subject = small_dictionary();
  subject.n_patterns = 3;  // declared |TP| no longer matches the rows
  const Report report = run_on_dictionary(subject);
  EXPECT_TRUE(report.has_rule(kRuleDictionaryShape));
  EXPECT_GE(report.error_count(), 1u);
}

TEST(DictionaryRules, ZeroAndDuplicateSignaturesWarn) {
  auto subject = small_dictionary();
  DictionarySubject::Signature zero;
  zero.label = "arc 8";
  zero.s_crt = {{0.0, 0.0}, {0.0, 0.0}};
  subject.signatures.push_back(zero);
  DictionarySubject::Signature dup = subject.signatures[0];
  dup.label = "arc 9";
  subject.signatures.push_back(dup);
  const Report report = run_on_dictionary(subject);
  EXPECT_TRUE(report.has_rule(kRuleZeroSignature));
  EXPECT_TRUE(report.has_rule(kRuleDuplicateSignature));
  // Both are diagnosability caps, not data corruption: warnings only.
  EXPECT_EQ(report.error_count(), 0u);
}

// Golden findings for the composite pathological netlist: pins the NET
// pack's exact output (order, locations, severities - including the
// self-cycle double-report quirk) across the pass-framework refactor, so
// any facts-layer change that alters a finding is caught here.
TEST(NetlistRules, CompositeGoldenFindingsAreStable) {
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(unused)
OUTPUT(o)
OUTPUT(o)
u = AND(a, w)
w = OR(u, b)
o = NAND(u, w)
dead = XOR(a, b)
k0 = AND(c0, c0)
c0 = AND(c0, c0)
q = DFF(q)
z = OR(q, k0)
o2 = NOT(z)
OUTPUT(o2)
)");
  const Report report = run_on_netlist(nl);
  EXPECT_EQ(report.error_count(), 6u);
  EXPECT_EQ(report.warning_count(), 3u);
  const struct {
    const char* severity;
    const char* rule;
    const char* location;
  } expected[] = {
      {"error", "NET001", "gate w"},       // cycle u <-> w
      {"error", "NET001", "gate c0"},      // self-cycle, via k0's fanin
      {"error", "NET001", "gate c0"},      // self-cycle, via its own fanin
      {"warning", "NET003", "gate unused"},
      {"error", "NET003", "gate dead"},
      {"error", "NET004", "gate o"},       // duplicate PO slot
      {"warning", "NET005", "gate c0"},
      {"warning", "NET005", "gate k0"},
      {"error", "NET007", "gate q"},       // self-feedback DFF
  };
  const std::string text = report.to_text();
  std::size_t pos = 0;
  for (const auto& e : expected) {
    const std::string line =
        std::string(e.severity) + " " + e.rule + " " + e.location + ":";
    const std::size_t at = text.find(line, pos);
    ASSERT_NE(at, std::string::npos) << "missing/misordered: " << line;
    pos = at + line.size();
  }
}

TEST(Analyzer, ReportIsIdenticalAcrossThreadCounts) {
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(o)
u = AND(a, w)
w = OR(u, b)
o = NAND(u, w)
dead = XOR(a, b)
)");
  const std::size_t before = runtime::thread_count();
  runtime::set_thread_count(1);
  const std::string serial = run_on_netlist(nl).to_json();
  runtime::set_thread_count(4);
  const std::string parallel = run_on_netlist(nl).to_json();
  runtime::set_thread_count(before);
  EXPECT_EQ(serial, parallel);
}

TEST(LintNetlist, RunsModelRulesOnScanCore) {
  // Sequential circuit: the delay model is only defined on the full-scan
  // combinational core, so a clean s27-style loop must lint clean instead
  // of throwing from StatisticalCellLibrary.
  const auto nl = netlist::parse_bench_string(R"(
INPUT(a)
OUTPUT(o)
q = DFF(u)
u = AND(a, q)
o = NOT(u)
)");
  ASSERT_TRUE(nl.frozen());
  const Report report =
      lint_netlist(Analyzer::with_default_rules(), nl);
  EXPECT_EQ(report.error_count(), 0u);
}

class CheckModeGuard {
 public:
  CheckModeGuard() : before_(obs::check_mode()) {}
  ~CheckModeGuard() { obs::set_check_mode(before_); }

 private:
  obs::CheckMode before_;
};

TEST(SdddCheck, OffModeIgnoresViolations) {
  const CheckModeGuard guard;
  obs::set_check_mode(obs::CheckMode::kOff);
  const std::vector<double> bad = {0.5, 1.5};
  EXPECT_NO_THROW(obs::check_probability_column(bad, "test"));
  EXPECT_NO_THROW(obs::check_signature_column(bad, "test"));
}

TEST(SdddCheck, ThrowModeNamesRuleId) {
  const CheckModeGuard guard;
  obs::set_check_mode(obs::CheckMode::kThrow);
  const std::vector<double> bad_prob = {0.5, 1.5};
  try {
    obs::check_probability_column(bad_prob, "unit test");
    FAIL() << "expected ContractViolation";
  } catch (const obs::ContractViolation& e) {
    EXPECT_EQ(e.rule_id(), "DICT001");
    EXPECT_NE(std::string(e.what()).find("DICT001"), std::string::npos);
  }

  const std::vector<double> bad_sig = {-1.5};
  try {
    obs::check_signature_column(bad_sig, "unit test");
    FAIL() << "expected ContractViolation";
  } catch (const obs::ContractViolation& e) {
    EXPECT_EQ(e.rule_id(), "DICT002");
  }
}

TEST(SdddCheck, MacroGuardsArbitraryConditions) {
  const CheckModeGuard guard;
  obs::set_check_mode(obs::CheckMode::kThrow);
  EXPECT_NO_THROW(SDDD_CHECK(2 + 2 == 4, "NET001", "arithmetic"));
  EXPECT_THROW(SDDD_CHECK(false, "MOD001", "forced"), obs::ContractViolation);
  obs::set_check_mode(obs::CheckMode::kOff);
  EXPECT_NO_THROW(SDDD_CHECK(false, "MOD001", "ignored when off"));
}

// Acceptance case: in throw mode, an out-of-range signature is rejected
// during diagnosis scoring (phi) with a message naming the rule id.
TEST(SdddCheck, PhiRejectsOutOfRangeSignature) {
  const CheckModeGuard guard;
  obs::set_check_mode(obs::CheckMode::kThrow);
  const std::vector<double> s = {0.25, 1.75};  // 1.75 violates DICT002
  const std::vector<bool> b = {true, false};
  try {
    diagnosis::phi(s, b);
    FAIL() << "expected ContractViolation from phi()";
  } catch (const obs::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("DICT00"), std::string::npos);
  }

  obs::set_check_mode(obs::CheckMode::kOff);
  EXPECT_NO_THROW(diagnosis::phi(s, b));  // contracts off: legacy behavior
}

}  // namespace
}  // namespace sddd::analysis
