// Unit tests for the evaluation harness: experiment mechanics (metrics,
// determinism, monotone-in-K success), the Table I driver, the embedded
// paper reference numbers and multi-defect trials (future work #3).
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "eval/experiment.h"
#include "eval/paper_reference.h"
#include "eval/table1.h"
#include "netlist/synth.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace sddd::eval {
namespace {

using diagnosis::Method;

netlist::Netlist small_circuit(std::uint64_t seed) {
  netlist::SynthSpec spec;
  spec.name = "evalckt";
  spec.n_inputs = 16;
  spec.n_outputs = 10;
  spec.n_gates = 120;
  spec.depth = 10;
  spec.seed = seed;
  return netlist::synthesize(spec);
}

ExperimentConfig quick_config() {
  ExperimentConfig config;
  config.mc_samples = 80;
  config.n_chips = 6;
  config.max_suspects = 120;
  config.pattern_config.paths_per_site = 2;
  config.pattern_config.site_search_tries = 64;
  config.seed = 8;
  return config;
}

TEST(Experiment, MetricsAreConsistent) {
  const auto nl = small_circuit(201);
  const auto r = run_diagnosis_experiment(nl, quick_config());
  EXPECT_EQ(r.trials.size(), 6u);
  EXPECT_GT(r.clk, 0.0);
  EXPECT_LE(r.diagnosable_trials(), r.trials.size());
  for (const auto& t : r.trials) {
    EXPECT_EQ(t.rank_of_true.size(), r.config.methods.size());
    if (t.failed_test) {
      EXPECT_GT(t.n_patterns, 0u);
      EXPECT_GT(t.n_failing_cells, 0u);
      EXPECT_GT(t.injection_attempts, 0u);
    }
  }
  if (r.diagnosable_trials() > 0) {
    EXPECT_GT(r.avg_suspects(), 0.0);
    EXPECT_GE(r.avg_injection_attempts(), 1.0);
  }
}

TEST(Experiment, SuccessRateMonotoneInK) {
  const auto nl = small_circuit(202);
  const auto r = run_diagnosis_experiment(nl, quick_config());
  for (const Method m : r.config.methods) {
    double prev = 0.0;
    for (const int k : {1, 2, 4, 8, 16, 64}) {
      const double rate = r.success_rate(m, k);
      EXPECT_GE(rate, prev - 1e-12);
      EXPECT_GE(rate, 0.0);
      EXPECT_LE(rate, 1.0);
      prev = rate;
    }
  }
}

TEST(Experiment, DeterministicForSeed) {
  const auto nl = small_circuit(203);
  const auto config = quick_config();
  const auto a = run_diagnosis_experiment(nl, config);
  const auto b = run_diagnosis_experiment(nl, config);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  EXPECT_DOUBLE_EQ(a.clk, b.clk);
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].chip.defect_arc, b.trials[i].chip.defect_arc);
    EXPECT_EQ(a.trials[i].rank_of_true, b.trials[i].rank_of_true);
  }
}

TEST(Experiment, UnknownMethodThrows) {
  const auto nl = small_circuit(204);
  auto config = quick_config();
  config.methods = {Method::kRev};
  config.n_chips = 1;
  const auto r = run_diagnosis_experiment(nl, config);
  EXPECT_THROW((void)r.success_rate(Method::kSimI, 1), std::invalid_argument);
}

TEST(Experiment, RejectsSequentialNetlist) {
  netlist::Netlist nl("seq");
  const auto a = nl.add_input("a");
  const auto d = nl.add_gate(netlist::CellType::kDff, "d", {a});
  nl.add_output(d);
  nl.freeze();
  EXPECT_THROW(run_diagnosis_experiment(nl, quick_config()),
               std::invalid_argument);
}

TEST(PaperReference, TwentyFourRowsMatchingCatalog) {
  EXPECT_EQ(paper_table1().size(), 24u);
  for (const char* name : {"s1196", "s1238", "s1423", "s1488", "s5378",
                           "s9234", "s13207", "s15850"}) {
    const auto rows = paper_table1_for(name);
    EXPECT_EQ(rows.size(), 3u) << name;
  }
  EXPECT_TRUE(paper_table1_for("c432").empty());
}

TEST(PaperReference, KnownValuesSpotCheck) {
  const auto rows = paper_table1_for("s5378");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2].k, 7);
  EXPECT_DOUBLE_EQ(rows[2].sim1_pct, 80.0);
  EXPECT_DOUBLE_EQ(rows[2].sim2_pct, 85.0);
  EXPECT_DOUBLE_EQ(rows[2].rev_pct, 90.0);
}

TEST(Table1, RunsOneCircuitAtTinyScale) {
  Table1Config config;
  config.circuits = {"s1196"};
  config.scale = 0.25;
  config.base = quick_config();
  config.base.n_chips = 4;
  const auto result = run_table1(config);
  ASSERT_EQ(result.experiments.size(), 1u);
  ASSERT_EQ(result.cells.size(), 3u);  // three K rows
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.circuit, "s1196");
    EXPECT_TRUE(cell.paper_sim1.has_value());
    EXPECT_GE(cell.sim1_pct, 0.0);
    EXPECT_LE(cell.rev_pct, 100.0);
  }
  // Rows ordered by increasing K as in the paper.
  EXPECT_LT(result.cells[0].k, result.cells[1].k);
  EXPECT_LT(result.cells[1].k, result.cells[2].k);
  // Rendering contains both measured and paper columns.
  const auto text = result.to_string();
  EXPECT_NE(text.find("s1196"), std::string::npos);
  EXPECT_NE(text.find("paper"), std::string::npos);
  const auto csv = result.to_csv();
  EXPECT_NE(csv.find("circuit,k"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3
}

// The Table-I JSON reports every PODEM outcome (calls and CPU seconds) and
// every conflict-cache counter under its name, and the calls are the run's
// counter deltas.
TEST(Table1, JsonCarriesEveryPodemOutcome) {
  Table1Config config;
  config.circuits = {"s1196"};
  config.scale = 0.25;
  config.base = quick_config();
  config.base.n_chips = 3;
  auto& registry = obs::MetricsRegistry::instance();
  const obs::MetricsSnapshot before = registry.snapshot();
  const auto result = run_table1(config);
  const obs::MetricsSnapshot after = registry.snapshot();
  const auto delta = [&](const std::string& name) {
    return obs::MetricsSnapshot::counter_delta(before, after, name);
  };
  std::ostringstream os;
  write_table1_json(os, config, result, 1.0, "sha", "run");
  const obs::JsonValue json = obs::parse_json(os.str());
  const obs::JsonValue* circuits = json.get("circuits");
  ASSERT_TRUE(circuits != nullptr && circuits->array.size() == 1u);
  const obs::JsonValue* phases = circuits->array[0].get("phases");
  ASSERT_NE(phases, nullptr);

  const obs::JsonValue* podem = phases->get("podem");
  ASSERT_NE(podem, nullptr);
  EXPECT_EQ(podem->object.size(), std::size(PhaseBreakdown::kPodemOutcomes));
  std::uint64_t calls = 0;
  for (const char* name : PhaseBreakdown::kPodemOutcomes) {
    const obs::JsonValue* outcome = podem->get(name);
    ASSERT_NE(outcome, nullptr) << name;
    ASSERT_TRUE(outcome->get("calls") != nullptr &&
                outcome->get("calls")->integer.has_value())
        << name;
    EXPECT_NE(outcome->get("cpu_s"), nullptr) << name;
    const std::uint64_t n = *outcome->get("calls")->integer;
    EXPECT_EQ(n, delta(std::string("atpg.podem.") + name)) << name;
    calls += n;
  }
  EXPECT_GT(calls, 0u);

  const obs::JsonValue* conflict = phases->get("conflict");
  ASSERT_NE(conflict, nullptr);
  EXPECT_EQ(conflict->object.size(),
            std::size(PhaseBreakdown::kConflictCounters));
  for (const char* name : PhaseBreakdown::kConflictCounters) {
    const obs::JsonValue* value = conflict->get(name);
    ASSERT_TRUE(value != nullptr && value->integer.has_value()) << name;
    EXPECT_EQ(*value->integer, delta(std::string("atpg.conflict.") + name))
        << name;
  }
}

TEST(MultiDefect, ExperimentRunsAndRecordsExtras) {
  netlist::SynthSpec spec;
  spec.name = "multi";
  spec.n_inputs = 16;
  spec.n_outputs = 10;
  spec.n_gates = 120;
  spec.depth = 10;
  spec.seed = 73;
  const auto nl = netlist::synthesize(spec);

  eval::ExperimentConfig config;
  config.mc_samples = 80;
  config.n_chips = 5;
  config.n_defects = 2;
  config.seed = 21;
  const auto r = eval::run_diagnosis_experiment(nl, config);
  EXPECT_EQ(r.trials.size(), 5u);
  for (const auto& t : r.trials) {
    if (!t.failed_test) continue;
    EXPECT_EQ(t.extra_defects.size(), 1u);
    EXPECT_LT(t.extra_defects[0].first, nl.arc_count());
    EXPECT_GT(t.extra_defects[0].second, 0.0);
  }
}

TEST(MultiDefect, SingleDefectConfigHasNoExtras) {
  netlist::SynthSpec spec;
  spec.name = "single";
  spec.n_inputs = 14;
  spec.n_outputs = 8;
  spec.n_gates = 100;
  spec.depth = 9;
  spec.seed = 74;
  const auto nl = netlist::synthesize(spec);
  eval::ExperimentConfig config;
  config.mc_samples = 80;
  config.n_chips = 3;
  config.seed = 22;
  const auto r = eval::run_diagnosis_experiment(nl, config);
  for (const auto& t : r.trials) {
    EXPECT_TRUE(t.extra_defects.empty());
  }
}

}  // namespace
}  // namespace sddd::eval
