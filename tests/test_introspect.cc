// Tests for the introspection subsystem: the Wilson confidence math
// against known binomial tables, the DICT006 sample-budget rule, run
// manifests, and the end-to-end explanation report (phi-sum consistency
// with the Sim-II score, CI containment, thread-count byte-identity).
#include <gtest/gtest.h>

#include <string>

#include "analysis/analyzer.h"
#include "analysis/dictionary_rules.h"
#include "eval/explain.h"
#include "introspect/confidence.h"
#include "introspect/manifest.h"
#include "netlist/synth.h"
#include "obs/codec.h"
#include "runtime/parallel_for.h"

namespace sddd {
namespace {

using introspect::Interval;

// --- confidence.h ---------------------------------------------------------

TEST(Confidence, WilsonMatchesKnownBinomialTables) {
  // Standard reference values for the 95% Wilson score interval.
  const Interval half = introspect::wilson_interval(0.5, 10);
  EXPECT_NEAR(half.lo, 0.2366, 1e-3);
  EXPECT_NEAR(half.hi, 0.7634, 1e-3);

  // p-hat = 1 stays non-degenerate (the Wald interval collapses to [1, 1]).
  const Interval ones = introspect::wilson_interval(1.0, 10);
  EXPECT_NEAR(ones.lo, 0.7225, 1e-3);
  EXPECT_DOUBLE_EQ(ones.hi, 1.0);

  // Symmetry: p-hat = 0 mirrors p-hat = 1.
  const Interval zeros = introspect::wilson_interval(0.0, 10);
  EXPECT_DOUBLE_EQ(zeros.lo, 0.0);
  EXPECT_NEAR(zeros.hi, 1.0 - ones.lo, 1e-12);
}

TEST(Confidence, ZeroSampleEdgeCases) {
  const Interval vacuous = introspect::wilson_interval(0.7, 0);
  EXPECT_DOUBLE_EQ(vacuous.lo, 0.0);
  EXPECT_DOUBLE_EQ(vacuous.hi, 1.0);
  EXPECT_DOUBLE_EQ(introspect::binomial_se(0.7, 0), 0.0);
  EXPECT_DOUBLE_EQ(introspect::wilson_worst_halfwidth(0), 0.5);
}

TEST(Confidence, IntervalAlwaysContainsTheEstimate) {
  for (const double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    for (const std::size_t n : {1u, 10u, 120u, 10000u}) {
      const Interval ci = introspect::wilson_interval(p, n);
      EXPECT_TRUE(ci.contains(p)) << "p=" << p << " n=" << n;
      EXPECT_GE(ci.lo, 0.0);
      EXPECT_LE(ci.hi, 1.0);
      EXPECT_GT(ci.width(), 0.0);
    }
  }
}

TEST(Confidence, SamplesForHalfwidthIsTheMinimalInverse) {
  for (const double h : {0.2, 0.1, 0.05, 0.02}) {
    const std::size_t n = introspect::samples_for_halfwidth(h);
    ASSERT_GT(n, 1u);
    EXPECT_LE(introspect::wilson_worst_halfwidth(n), h) << "h=" << h;
    EXPECT_GT(introspect::wilson_worst_halfwidth(n - 1), h) << "h=" << h;
  }
  EXPECT_EQ(introspect::samples_for_halfwidth(0.5), 1u);
  EXPECT_EQ(introspect::samples_for_halfwidth(0.0), 0u);
}

TEST(Confidence, FactorIntervalFollowsTheBehaviorBit) {
  const Interval s{0.2, 0.6};
  // b = 1: f = s, interval passes through.
  const Interval pass = introspect::factor_interval(s, true);
  EXPECT_DOUBLE_EQ(pass.lo, 0.2);
  EXPECT_DOUBLE_EQ(pass.hi, 0.6);
  // b = 0: f = 1 - s, endpoints flip.
  const Interval flip = introspect::factor_interval(s, false);
  EXPECT_DOUBLE_EQ(flip.lo, 0.4);
  EXPECT_DOUBLE_EQ(flip.hi, 0.8);
}

// --- DICT006 (sample budget) ----------------------------------------------

analysis::DictionarySubject budget_subject(std::size_t mc_samples) {
  analysis::DictionarySubject subject;
  subject.n_outputs = 2;
  subject.n_patterns = 2;
  subject.m_crt = {{0.1, 0.2}, {0.3, 0.4}};
  analysis::DictionarySubject::Signature sig;
  sig.label = "arc 7";
  sig.s_crt = {{0.5, 0.0}, {0.0, 0.25}};
  subject.signatures.push_back(sig);
  subject.mc_samples = mc_samples;
  subject.target_ci_halfwidth = 0.1;
  return subject;
}

analysis::Report run_on_dictionary(const analysis::DictionarySubject& s) {
  analysis::AnalysisInput in;
  in.dictionary = &s;
  return analysis::Analyzer::with_default_rules().run(in);
}

TEST(DictionaryRules, LowSampleBudgetWarnsDict006) {
  // 24 samples: worst-case halfwidth ~0.186, well above the 0.1 target.
  const analysis::Report report = run_on_dictionary(budget_subject(24));
  EXPECT_TRUE(report.has_rule(analysis::kRuleSampleBudget));
  EXPECT_EQ(report.error_count(), 0u);  // a budget problem, not corruption
  EXPECT_NE(report.to_json().find("DICT006"), std::string::npos);
}

TEST(DictionaryRules, AdequateSampleBudgetIsSilent) {
  // 120 samples: worst-case halfwidth ~0.088, inside the 0.1 target.
  EXPECT_FALSE(run_on_dictionary(budget_subject(120))
                   .has_rule(analysis::kRuleSampleBudget));
  // mc_samples unset (0) means "not supplied": the rule must not fire.
  EXPECT_FALSE(run_on_dictionary(budget_subject(0))
                   .has_rule(analysis::kRuleSampleBudget));
}

// --- manifest.h ------------------------------------------------------------

TEST(Manifest, JsonCarriesProvenanceFields) {
  introspect::RunManifest m;
  m.tool = "sddd_cli diagnose";
  m.circuit = "evalckt";
  m.run_id = obs::hex64(0x1234ULL);
  m.seed = 8;
  m.mc_samples = 80;
  m.n_chips = 6;
  m.threads = 2;
  m.git_sha = "abc1234";
  m.faults = "exp.trial@1";
  m.quarantined_trials = 1;
  m.inputs.push_back({"ckt.bench", obs::hex64(99), 1024});
  m.artifacts.push_back({"explain", "explain.json"});

  const std::string json = introspect::manifest_to_json(m);
  for (const char* needle :
       {"\"schema\": \"sddd-manifest-v1\"", "\"tool\": \"sddd_cli diagnose\"",
        "\"run_id\": \"0000000000001234\"", "\"git_sha\": \"abc1234\"",
        "\"faults\": \"exp.trial@1\"", "\"quarantined_trials\": 1",
        "\"ckt.bench\"", "\"explain.json\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

// --- end-to-end explanation ------------------------------------------------

netlist::Netlist small_circuit(std::uint64_t seed) {
  netlist::SynthSpec spec;
  spec.name = "explainckt";
  spec.n_inputs = 16;
  spec.n_outputs = 10;
  spec.n_gates = 120;
  spec.depth = 10;
  spec.seed = seed;
  return netlist::synthesize(spec);
}

eval::ExperimentConfig quick_config() {
  eval::ExperimentConfig config;
  config.mc_samples = 80;
  config.n_chips = 6;
  config.max_suspects = 120;
  config.pattern_config.paths_per_site = 2;
  config.pattern_config.site_search_tries = 64;
  config.seed = 8;
  return config;
}

TEST(ExplainTrial, PhiSumReproducesTheSimIIScore) {
  const auto nl = small_circuit(301);
  const auto report = eval::explain_trial(nl, quick_config(), {});

  ASSERT_FALSE(report.candidates.empty());
  EXPECT_GT(report.n_patterns, 0u);
  EXPECT_EQ(report.mc_samples, 80u);
  EXPECT_EQ(report.run_id.size(), 16u);

  const auto& top = report.candidates.front();
  EXPECT_EQ(top.rank, 0);

  // Sum of the per-pattern phi rows equals the candidate's phi_sum ...
  double pattern_sum = 0.0;
  for (const auto& p : top.patterns) pattern_sum += p.phi;
  EXPECT_NEAR(pattern_sum, top.phi_sum, 1e-12);

  // ... and phi_sum / |TP| is exactly the reported Sim-II score.
  const introspect::MethodScore* sim2 = nullptr;
  for (const auto& m : top.methods) {
    if (m.method == diagnosis::Method::kSimII) sim2 = &m;
  }
  ASSERT_NE(sim2, nullptr);
  EXPECT_NEAR(top.phi_sum / static_cast<double>(report.n_patterns),
              sim2->score, 1e-12);
}

TEST(ExplainTrial, EveryScoreSitsInsideItsInterval) {
  const auto nl = small_circuit(302);
  const auto config = quick_config();
  const auto report = eval::explain_trial(nl, config, {});

  ASSERT_FALSE(report.candidates.empty());
  EXPECT_EQ(report.separability.size(), config.methods.size());
  for (const auto& cand : report.candidates) {
    EXPECT_EQ(cand.methods.size(), config.methods.size());
    for (const auto& m : cand.methods) {
      EXPECT_LE(m.ci.lo, m.score + 1e-12);
      EXPECT_GE(m.ci.hi, m.score - 1e-12);
    }
    for (const auto& p : cand.patterns) {
      EXPECT_TRUE(p.phi_ci.contains(p.phi));
      for (const auto& c : p.cells) {
        EXPECT_TRUE(c.matched_ci.contains(c.matched));
      }
    }
  }
}

TEST(ExplainTrial, ReportIsByteIdenticalAcrossThreadCounts) {
  const auto nl = small_circuit(303);
  const auto config = quick_config();
  const eval::ExplainRequest request;

  const std::size_t before = runtime::thread_count();
  runtime::set_thread_count(1);
  const std::string serial = introspect::to_json(
      eval::explain_trial(nl, config, request));
  runtime::set_thread_count(4);
  const std::string parallel = introspect::to_json(
      eval::explain_trial(nl, config, request));
  runtime::set_thread_count(before);

  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"schema\": \"sddd-explain-v1\""),
            std::string::npos);
}

TEST(ExplainTrial, RejectsOutOfRangeTrial) {
  const auto nl = small_circuit(304);
  eval::ExplainRequest request;
  request.trial = 99;  // config has 6 chips
  EXPECT_THROW(eval::explain_trial(nl, quick_config(), request),
               std::invalid_argument);
}

}  // namespace
}  // namespace sddd
