#include "eval/table1.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "eval/paper_reference.h"
#include "introspect/confidence.h"
#include "netlist/bench_io.h"
#include "netlist/iscas_catalog.h"
#include "netlist/scan.h"
#include "obs/atomic_file.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace sddd::eval {

using diagnosis::Method;
using netlist::IscasProfile;
using netlist::Netlist;

namespace {

Netlist load_circuit(const IscasProfile& profile, const Table1Config& config) {
  if (config.bench_dir) {
    const auto path = *config.bench_dir /
                      (std::string(profile.name) + ".bench");
    if (std::filesystem::exists(path)) {
      return netlist::full_scan_transform(netlist::parse_bench_file(path));
    }
  }
  return netlist::make_standin(profile, config.scale, config.base.seed);
}

/// Rejects circuits with error-severity findings before any Monte-Carlo
/// cycle is spent on them.
void lint_or_throw(const Netlist& nl) {
  const auto report =
      analysis::lint_netlist(analysis::Analyzer::with_default_rules(), nl);
  if (report.error_count() > 0) {
    throw std::runtime_error("lint preflight failed for " + nl.name() +
                             ":\n" + report.to_text());
  }
  if (!report.empty()) {
    SDDD_LOG_WARN("lint preflight (%s):\n%s", nl.name().c_str(),
                  report.to_text().c_str());
  }
}

}  // namespace

Table1Result run_table1(const Table1Config& config) {
  Table1Result result;
  for (const IscasProfile& profile : netlist::table1_circuits()) {
    if (!config.circuits.empty()) {
      bool wanted = false;
      for (const auto& name : config.circuits) wanted |= (name == profile.name);
      if (!wanted) continue;
    }
    SDDD_SPAN(span, "table1.circuit");
    span.arg("circuit", std::string_view(profile.name));
    SDDD_LOG_INFO("table1: running %s (scale %.2f, %zu chips, %zu samples)",
                  std::string(profile.name).c_str(), config.scale,
                  config.base.n_chips, config.base.mc_samples);
    const Netlist nl = load_circuit(profile, config);
    if (config.lint_preflight) lint_or_throw(nl);

    ExperimentConfig exp_config = config.base;
    exp_config.methods = {Method::kSimI, Method::kSimII, Method::kSimIII,
                          Method::kRev};
    auto experiment = run_diagnosis_experiment(nl, exp_config);

    const auto paper_rows = paper_table1_for(profile.name);
    for (const int k : profile.table1_k) {
      Table1Cell cell;
      cell.circuit = std::string(profile.name);
      cell.k = k;
      cell.sim1_pct = 100.0 * experiment.success_rate(Method::kSimI, k);
      cell.sim2_pct = 100.0 * experiment.success_rate(Method::kSimII, k);
      cell.sim3_pct = 100.0 * experiment.success_rate(Method::kSimIII, k);
      cell.rev_pct = 100.0 * experiment.success_rate(Method::kRev, k);
      cell.logic_pct = 100.0 * experiment.logic_baseline_success_rate(k);
      for (const auto& row : paper_rows) {
        if (row.k == k) {
          cell.paper_sim1 = row.sim1_pct;
          cell.paper_sim2 = row.sim2_pct;
          cell.paper_rev = row.rev_pct;
        }
      }
      result.cells.push_back(std::move(cell));
    }
    result.experiments.push_back(std::move(experiment));
  }
  return result;
}

std::string Table1Result::to_string() const {
  std::ostringstream os;
  os << "circuit    K | logic  sim-I  sim-II sim-III rev    | paper: I    II   rev\n";
  os << "-------------+---------------------------------------+---------------------\n";
  char buf[160];
  for (const auto& c : cells) {
    std::snprintf(buf, sizeof(buf),
                  "%-9s %3d | %5.0f%% %5.0f%% %5.0f%% %6.0f%% %5.0f%% |      "
                  "%4.0f %5.0f %5.0f\n",
                  c.circuit.c_str(), c.k, c.logic_pct, c.sim1_pct, c.sim2_pct,
                  c.sim3_pct, c.rev_pct, c.paper_sim1.value_or(-1),
                  c.paper_sim2.value_or(-1), c.paper_rev.value_or(-1));
    os << buf;
  }
  return os.str();
}

void write_table1_json(std::ostream& os, const Table1Config& config,
                       const Table1Result& result, double total_seconds,
                       const std::string& git_sha,
                       const std::string& run_id) {
  os << "{\n"
     << "  \"bench\": \"table1\",\n"
     << "  \"run_id\": \"" << run_id << "\",\n"
     << "  \"git_sha\": \"" << git_sha << "\",\n"
     << "  \"threads\": " << runtime::thread_count() << ",\n"
     << "  \"scale\": " << config.scale << ",\n"
     << "  \"samples\": " << config.base.mc_samples << ",\n"
     << "  \"chips\": " << config.base.n_chips << ",\n"
     << "  \"seed\": " << config.base.seed << ",\n"
     << "  \"total_seconds\": " << total_seconds << ",\n"
     << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < result.experiments.size(); ++i) {
    const auto& exp = result.experiments[i];
    const PhaseBreakdown& ph = exp.phases;
    os << "    {\"name\": \"" << exp.circuit_name << "\", \"seconds\": "
       << exp.wall_seconds << ", \"clk\": " << exp.clk
       << ", \"diagnosable\": " << exp.diagnosable_trials() << ",\n"
       << "     \"completed\": " << exp.completed_trials()
       << ", \"quarantined\": " << exp.quarantined_trials()
       << ", \"resumed\": " << exp.resumed_trials << ", \"degraded\": "
       << (exp.degraded ? "true" : "false") << ",\n"
       << "     \"phases\": {\"setup_s\": " << ph.setup_seconds
       << ", \"calibration_s\": " << ph.calibration_seconds
       << ", \"trials_s\": " << ph.trials_seconds << ",\n"
       << "                \"atpg_cpu_s\": " << ph.atpg_cpu_seconds
       << ", \"atpg_gate_cpu_s\": " << ph.atpg_gate_cpu_seconds
       << ", \"atpg_accepted_cpu_s\": " << ph.atpg_accepted_cpu_seconds
       << ",\n                \"mc_observe_cpu_s\": "
       << ph.mc_observe_cpu_seconds
       << ", \"dict_build_cpu_s\": " << ph.dict_build_cpu_seconds << ",\n"
       << "                \"suspect_extract_cpu_s\": "
       << ph.suspect_extract_cpu_seconds
       << ", \"score_cpu_s\": " << ph.score_cpu_seconds << ",\n"
       << "                \"score_col_build_s\": "
       << ph.score_column_build_cpu_seconds
       << ", \"score_phi_s\": " << ph.score_phi_cpu_seconds << ",\n"
       << "                \"counters\": {\"mc_samples\": " << ph.mc_samples
       << ", \"dict_columns_built\": " << ph.dict_columns_built
       << ", \"phi_evals\": " << ph.phi_evals
       << ", \"pool_tasks\": " << ph.pool_tasks
       << ",\n                             \"sig_cache_hits\": "
       << ph.sig_cache_hits
       << ", \"sig_cache_misses\": " << ph.sig_cache_misses
       << ", \"sig_cache_bytes\": " << ph.sig_cache_bytes << "},\n";
    // PODEM outcomes and the conflict cache depend on the thread schedule
    // (see PhaseBreakdown), unlike everything above.
    os << "                \"podem\": {";
    for (std::size_t k = 0; k < ph.podem.size(); ++k) {
      os << (k == 0 ? "" : k % 2 == 0 ? ",\n                          " : ", ")
         << "\"" << PhaseBreakdown::kPodemOutcomes[k]
         << "\": {\"calls\": " << ph.podem[k].calls
         << ", \"cpu_s\": " << ph.podem[k].cpu_seconds << "}";
    }
    os << "},\n                \"conflict\": {";
    for (std::size_t k = 0; k < ph.conflict.size(); ++k) {
      os << (k == 0 ? "" : ", ") << "\"" << PhaseBreakdown::kConflictCounters[k]
         << "\": " << ph.conflict[k];
    }
    os << "},\n";
    // Stage counters do not depend on the schedule (see PhaseBreakdown).
    os << "                \"stages\": {";
    for (std::size_t k = 0; k < ph.stages.size(); ++k) {
      os << (k == 0 ? "" : k % 3 == 0 ? ",\n                           " : ", ")
         << "\"" << ph.stages[k].first << "\": " << ph.stages[k].second;
    }
    os << "}},\n";
    // Wilson 95% intervals on the top-1 success rates: each rate is a
    // binomial proportion over the diagnosable trials, so without these
    // a 3/4-vs-4/4 difference reads as a 25-point gap.
    const std::size_t n_diag = exp.diagnosable_trials();
    os << "     \"confidence\": {\"mc_samples\": " << exp.config.mc_samples
       << ", \"diagnosable\": " << n_diag;
    for (const Method m : exp.config.methods) {
      const double p = exp.success_rate(m, 1);
      const auto ci = introspect::wilson_interval(p, n_diag);
      os << ", \"" << diagnosis::method_name(m) << "_top1_ci\": [" << ci.lo
         << ", " << ci.hi << "]";
    }
    os << "}}" << (i + 1 < result.experiments.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

bool write_table1_json_file(const std::string& path,
                            const Table1Config& config,
                            const Table1Result& result, double total_seconds,
                            const std::string& git_sha,
                            const std::string& run_id) {
  // Atomic (temp + rename): a crash or injected fault mid-write leaves
  // either the previous artifact or none - never a truncated JSON that a
  // downstream plot script would half-parse.
  std::ostringstream os;
  write_table1_json(os, config, result, total_seconds, git_sha, run_id);
  return obs::atomic_write_file(path, os.str());
}

std::string Table1Result::to_csv() const {
  std::ostringstream os;
  os << "circuit,k,logic,sim1,sim2,sim3,rev,paper_sim1,paper_sim2,paper_rev\n";
  for (const auto& c : cells) {
    os << c.circuit << ',' << c.k << ',' << c.logic_pct << ',' << c.sim1_pct << ',' << c.sim2_pct
       << ',' << c.sim3_pct << ',' << c.rev_pct << ','
       << (c.paper_sim1 ? std::to_string(*c.paper_sim1) : "") << ','
       << (c.paper_sim2 ? std::to_string(*c.paper_sim2) : "") << ','
       << (c.paper_rev ? std::to_string(*c.paper_rev) : "") << '\n';
  }
  return os.str();
}

}  // namespace sddd::eval
