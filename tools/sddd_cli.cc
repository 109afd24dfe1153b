// sddd_cli - Command-line front end to the library.
//
//   sddd_cli info <netlist>                 summary + statistical timing
//   sddd_cli convert <in> <out>             .bench <-> .v conversion
//   sddd_cli scan <in> <out>                full-scan transform
//   sddd_cli synth <out> [--inputs N] [--outputs N] [--gates N]
//                        [--depth N] [--seed N]
//   sddd_cli atpg <netlist> [--site ARC] [--max-patterns N] [--seed N]
//   sddd_cli diagnose <netlist> [--chips N] [--samples N] [--seed N]
//                     [--checkpoint FILE [--resume]] [--deadline-s S]
//                     [--json FILE] [--explain-out FILE [--explain-trial N]]
//                     [--manifest-out FILE]
//   sddd_cli explain <netlist> [--chips N] [--samples N] [--seed N]
//                    [--trial N] [--top K] [--out FILE] [--md FILE]
//                    [--manifest-out FILE]
//   sddd_cli report [--ledger FILE] [--a RUN_ID --b RUN_ID | --last N]
//                   [--json FILE]           diff two run-ledger records
//
// Netlist format is chosen by extension: .bench / anything else = Verilog.
// Sequential netlists are full-scan transformed automatically where the
// command needs a combinational core.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "analysis/analyzer.h"
#include "atpg/diag_patterns.h"
#include "eval/checkpoint.h"
#include "eval/experiment.h"
#include "eval/explain.h"
#include "introspect/manifest.h"
#include "obs/atomic_file.h"
#include "obs/codec.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "netlist/bench_io.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "netlist/scan.h"
#include "netlist/synth.h"
#include "obs/log.h"
#include "obs/obs.h"
#include "netlist/verilog_io.h"
#include "paths/transition_graph.h"
#include "runtime/parallel_for.h"
#include "store/client.h"
#include "store/query.h"
#include "store/server.h"
#include "store/store.h"
#include "store/wire.h"
#include "timing/celllib.h"
#include "timing/clark_ssta.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/ssta.h"

using namespace sddd;

namespace {

[[noreturn]] void usage_and_exit() {
  std::fprintf(
      stderr,
      "usage: sddd_cli <command> ...\n"
      "  info <netlist>                      structure + timing summary\n"
      "  convert <in> <out>                  format conversion\n"
      "  scan <in> <out>                     full-scan transform\n"
      "  synth <out> [--inputs N] [--outputs N] [--gates N] [--depth N]\n"
      "              [--seed N] | [--profile NAME [--scale S]]\n"
      "  atpg <netlist> [--site ARC] [--max-patterns N] [--seed N]\n"
      "  diagnose <netlist> [--chips N] [--samples N] [--seed N]\n"
      "           [--checkpoint FILE [--resume]]  journal finished trials;\n"
      "                 --resume replays them (bit-identical, any threads)\n"
      "           [--deadline-s S]  soft trial-loop budget; on expiry the\n"
      "                 run degrades (skips trials) instead of failing\n"
      "           [--json FILE]     deterministic result JSON (no timings)\n"
      "           [--explain-out FILE [--explain-trial N]]  write the\n"
      "                 explanation report for one trial (default: first\n"
      "                 diagnosable) as deterministic JSON\n"
      "           [--manifest-out FILE]  run-provenance manifest (run id,\n"
      "                 seeds, threads, git sha, input hashes, artifacts)\n"
      "  dict build <netlist> <out.store> [--samples N] [--seed N]\n"
      "             [--pattern-sites N] [--max-patterns N] [--clk X]\n"
      "             [--max-suspects N] [--calibration-sites N]\n"
      "             [--quantile Q]  freeze the probabilistic dictionary\n"
      "                 into a checksummed, mmappable store file (atomic\n"
      "                 write; pure function of netlist + flags, so equal\n"
      "                 args => byte-identical files)\n"
      "  dict verify <store>      full integrity sweep (checksums, sizes);\n"
      "                 exit 0 serving-grade, 1 corrupt (section named)\n"
      "  dict info <store>        header + section table summary\n"
      "  dict chips <netlist> <store> [--chips N] [--match e|s] [--top K]\n"
      "             [--deadline-ms N] [--out FILE]  draw failing chips\n"
      "                 from the instance Monte-Carlo world and render the\n"
      "                 canonical diagnose request (the serve wire format)\n"
      "  dict query <store> --request FILE [--out FILE]\n"
      "             [--socket PATH | --port N]  answer a diagnose request\n"
      "                 in-process from the store, or (with an endpoint)\n"
      "                 relay it to a running server with retry/backoff -\n"
      "                 both transports produce byte-identical responses\n"
      "  serve <store...> [--socket PATH] [--port N (0 = ephemeral)]\n"
      "        [--max-inflight N] [--deadline-ms N] [--top K]\n"
      "                 long-running batch diagnosis server: mmaps the\n"
      "                 stores once, quarantines corrupt ones (keeps\n"
      "                 serving the rest), sheds load past the in-flight\n"
      "                 budget, drains cleanly on SIGTERM; SIGUSR1 prints\n"
      "                 live stats + postmortem without draining\n"
      "  stats [--socket PATH | --port N] [--watch S] [--prom | --json]\n"
      "                 one stats snapshot from a running server (rolling\n"
      "                 60s window, per-phase latency histograms, slow\n"
      "                 requests); --watch S re-polls every S seconds,\n"
      "                 --prom prints the Prometheus text exposition\n"
      "  report [--ledger FILE] [--a RUN_ID --b RUN_ID | --last N]\n"
      "         [--json FILE]  compare two ledger records: per-phase wall\n"
      "                 deltas, changed counters, rank stability (run_ids\n"
      "                 may be unique prefixes; default: the last two)\n"
      "  explain <netlist> [--chips N] [--samples N] [--seed N] [--trial N]\n"
      "          [--top K] [--out FILE] [--md FILE] [--manifest-out FILE]\n"
      "                 re-run one diagnosis trial and decompose its scores\n"
      "                 into per-pattern phi contributions with Wilson 95%%\n"
      "                 confidence intervals; same defaults as diagnose, so\n"
      "                 equal args => equal run ids across artifacts\n"
      "global: --threads N (0 = all hardware threads, 1 = serial; also\n"
      "        honours SDDD_THREADS; results are identical at any setting)\n"
      "        --lint   static-analysis preflight of the input netlist;\n"
      "                 error-severity findings abort the command\n"
      "%s"
      "formats by extension: .bench = ISCAS bench, otherwise Verilog\n",
      sddd::obs::observability_usage());
  std::exit(2);
}

bool is_bench(const std::filesystem::path& path) {
  return path.extension() == ".bench";
}

netlist::Netlist load(const std::filesystem::path& path) {
  return is_bench(path) ? netlist::parse_bench_file(path)
                        : netlist::parse_verilog_file(path);
}

void store(const netlist::Netlist& nl, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write: " + path.string());
  }
  if (is_bench(path)) {
    netlist::write_bench(nl, out);
  } else {
    netlist::write_verilog(nl, out);
  }
}

/// Removes a value-less `flag` from argv (wherever it appears) and
/// reports whether it was present.  Mirrors configure_threads_from_args so
/// global flags stay invisible to the per-command option scanners.
bool consume_flag(int* argc, char** argv, const char* flag) {
  bool found = false;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      found = true;
    } else {
      argv[w++] = argv[i];
    }
  }
  *argc = w;
  return found;
}

/// The --lint preflight: netlist + statistical-model rule packs over the
/// input circuit.  Returns false (after printing the report) when error-
/// severity findings make the requested command meaningless.
bool preflight_lint(const std::filesystem::path& path) {
  const auto nl = load(path);
  const auto report =
      analysis::lint_netlist(analysis::Analyzer::with_default_rules(), nl);
  if (!report.empty()) {
    SDDD_LOG_WARN("lint (%s):\n%s", nl.name().c_str(),
                  report.to_text().c_str());
  }
  return report.error_count() == 0;
}

/// "--key value" option scanner over argv[from..).
class Options {
 public:
  Options(int argc, char** argv, int from) {
    for (int i = from; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
        values_[argv[i] + 2] = argv[i + 1];
        ++i;
      } else {
        positional_.push_back(argv[i]);
      }
    }
  }

  long get(const char* key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }

  double get_double(const char* key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  std::string str(const char* key, const std::string& fallback = {}) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

int cmd_info(const std::filesystem::path& path) {
  const auto raw = load(path);
  std::printf("%s\n", raw.summary().c_str());
  const auto nl = raw.dff_count() > 0 ? netlist::full_scan_transform(raw) : raw;
  if (raw.dff_count() > 0) {
    std::printf("full-scan core: %s\n", nl.summary().c_str());
  }
  const netlist::Levelization lev(nl);
  std::printf("logic depth: %u levels\n", lev.depth());
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField field(model, 1000, 0.03, 1);
  const timing::StaticTiming mc(field, lev);
  const timing::ClarkStaticTiming clark(model, lev);
  std::printf("static Delta(C):  MC mean %.1f sd %.1f (q99 %.1f)   "
              "Clark mean %.1f sd %.1f\n",
              mc.circuit_delay().mean(), mc.circuit_delay().stddev(),
              mc.clk_at_quantile(0.99), clark.circuit_delay().mean,
              clark.circuit_delay().sigma());
  return 0;
}

int cmd_convert(const std::filesystem::path& in,
                const std::filesystem::path& out) {
  store(load(in), out);
  std::printf("wrote %s\n", out.string().c_str());
  return 0;
}

int cmd_scan(const std::filesystem::path& in,
             const std::filesystem::path& out) {
  store(netlist::full_scan_transform(load(in)), out);
  std::printf("wrote %s\n", out.string().c_str());
  return 0;
}

int cmd_synth(const std::filesystem::path& out, const Options& opts) {
  // --profile synthesizes the ISCAS stand-in from the catalog (the same
  // generator the Table I harness uses), so scripts can build e.g. an
  // s1196-class circuit without replicating its structural numbers.
  const std::string profile_name = opts.str("profile");
  if (!profile_name.empty()) {
    const netlist::IscasProfile* profile = netlist::find_profile(profile_name);
    if (profile == nullptr) {
      std::fprintf(stderr, "unknown profile: %s\n", profile_name.c_str());
      return 1;
    }
    const auto nl = netlist::make_standin(
        *profile, opts.get_double("scale", 1.0),
        static_cast<std::uint64_t>(opts.get("seed", 1)));
    store(nl, out);
    std::printf("wrote %s (%s)\n", out.string().c_str(),
                nl.summary().c_str());
    return 0;
  }
  netlist::SynthSpec spec;
  spec.name = out.stem().string();
  spec.n_inputs = static_cast<std::uint32_t>(opts.get("inputs", 16));
  spec.n_outputs = static_cast<std::uint32_t>(opts.get("outputs", 12));
  spec.n_gates = static_cast<std::uint32_t>(opts.get("gates", 200));
  spec.depth = static_cast<std::uint32_t>(opts.get("depth", 14));
  spec.seed = static_cast<std::uint64_t>(opts.get("seed", 1));
  const auto nl = netlist::synthesize(spec);
  store(nl, out);
  std::printf("wrote %s (%s)\n", out.string().c_str(), nl.summary().c_str());
  return 0;
}

int cmd_atpg(const std::filesystem::path& path, const Options& opts) {
  auto nl = load(path);
  if (nl.dff_count() > 0) nl = netlist::full_scan_transform(nl);
  const netlist::Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const auto site = static_cast<netlist::ArcId>(
      opts.get("site", static_cast<long>(nl.arc_count() / 2)));
  if (site >= nl.arc_count()) {
    std::fprintf(stderr, "site %u out of range (%zu arcs)\n", site,
                 nl.arc_count());
    return 1;
  }
  atpg::DiagnosticPatternConfig config;
  config.max_patterns =
      static_cast<std::size_t>(opts.get("max-patterns", 12));
  stats::Rng rng(static_cast<std::uint64_t>(opts.get("seed", 1)));
  const auto patterns =
      atpg::generate_diagnostic_patterns(model, lev, site, config, rng);
  const auto& arc = nl.arc(site);
  std::printf("site: arc %u (pin %u of %s); %zu patterns\n", site, arc.pin,
              nl.gate(arc.gate).name.c_str(), patterns.size());
  const logicsim::BitSimulator sim(nl, lev);
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const paths::TransitionGraph tg(sim, lev, patterns[j]);
    std::printf("  v%zu (site %sactive): v1=", j,
                tg.is_active(site) ? "" : "NOT ");
    for (const bool b : patterns[j].v1) std::printf("%d", b ? 1 : 0);
    std::printf(" v2=");
    for (const bool b : patterns[j].v2) std::printf("%d", b ? 1 : 0);
    std::printf("\n");
  }
  return 0;
}

/// The provenance skeleton shared by `diagnose --manifest-out` and
/// `explain --manifest-out`: run identity, environment and the hashed
/// input file.  Artifact entries are the caller's.
introspect::RunManifest base_manifest(const char* tool,
                                      const std::filesystem::path& input,
                                      const netlist::Netlist& nl,
                                      const eval::ExperimentConfig& config) {
  introspect::RunManifest m;
  m.tool = tool;
  m.circuit = nl.name();
  m.run_id =
      obs::hex64(eval::experiment_fingerprint(nl.name(), config));
  m.seed = config.seed;
  m.mc_samples = config.mc_samples;
  m.n_chips = config.n_chips;
  m.threads = runtime::thread_count();
  const char* sha = std::getenv("SDDD_GIT_SHA");
  m.git_sha = sha != nullptr ? sha : "unknown";
  const char* faults = std::getenv("SDDD_FAULTS");
  m.faults = faults != nullptr ? faults : "";
  introspect::RunManifest::InputFile f;
  f.path = input.string();
  std::uint64_t bytes = 0;
  f.fnv1a = obs::hex64(introspect::fnv1a_file(input.string(), &bytes));
  f.bytes = bytes;
  m.inputs.push_back(std::move(f));
  return m;
}

eval::ExperimentConfig diagnose_config_from(const Options& opts) {
  // One parser for diagnose and explain: identical defaults mean identical
  // experiment fingerprints, so their artifacts cross-link by run id.
  eval::ExperimentConfig config;
  config.n_chips = static_cast<std::size_t>(opts.get("chips", 10));
  config.mc_samples = static_cast<std::size_t>(opts.get("samples", 250));
  config.seed = static_cast<std::uint64_t>(opts.get("seed", 2003));
  return config;
}

int cmd_diagnose(const std::filesystem::path& path, const Options& opts,
                 bool resume) {
  auto nl = load(path);
  if (nl.dff_count() > 0) nl = netlist::full_scan_transform(nl);
  eval::ExperimentConfig config = diagnose_config_from(opts);
  config.checkpoint_path = opts.str("checkpoint");
  config.resume = resume;
  config.deadline_s = opts.get_double("deadline-s", 0.0);
  if (config.resume && config.checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
    return 2;
  }
  const auto result = eval::run_diagnosis_experiment(nl, config);
  std::printf("%s: clk=%.1f diagnosable=%zu/%zu avg|S|=%.1f\n",
              nl.name().c_str(), result.clk, result.diagnosable_trials(),
              result.trials.size(), result.avg_suspects());
  if (result.resumed_trials > 0) {
    std::printf("resumed %zu trials from %s\n", result.resumed_trials,
                config.checkpoint_path.c_str());
  }
  if (result.quarantined_trials() > 0) {
    std::printf("quarantined %zu/%zu trials (success rates are over the "
                "%zu diagnosable trials):\n",
                result.quarantined_trials(), result.trials.size(),
                result.diagnosable_trials());
    for (std::size_t i = 0; i < result.trials.size(); ++i) {
      const eval::TrialRecord& t = result.trials[i];
      if (t.status != eval::TrialStatus::kQuarantined) continue;
      std::printf("  trial %zu [%.*s]: %s\n", i,
                  static_cast<int>(error_code_name(t.error_code).size()),
                  error_code_name(t.error_code).data(),
                  t.error_message.c_str());
    }
  }
  if (result.degraded) {
    std::printf("DEGRADED: deadline expired with %zu/%zu trials skipped"
                "%s\n",
                result.skipped_trials(), result.trials.size(),
                config.checkpoint_path.empty()
                    ? ""
                    : "; re-run with --resume to finish them");
  }
  std::printf("%4s | %7s %7s %8s %7s\n", "K", "sim-I", "sim-II", "sim-III",
              "rev");
  for (const int k : {1, 2, 3, 5, 7, 10}) {
    std::printf("%4d | %6.0f%% %6.0f%% %7.0f%% %6.0f%%\n", k,
                100 * result.success_rate(diagnosis::Method::kSimI, k),
                100 * result.success_rate(diagnosis::Method::kSimII, k),
                100 * result.success_rate(diagnosis::Method::kSimIII, k),
                100 * result.success_rate(diagnosis::Method::kRev, k));
  }
  const std::string json_path = opts.str("json");
  if (!json_path.empty()) {
    eval::write_experiment_json(result, json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  const std::string explain_out = opts.str("explain-out");
  if (!explain_out.empty()) {
    eval::ExplainRequest request;
    const long explain_trial = opts.get("explain-trial", -1);
    if (explain_trial >= 0) {
      request.trial = static_cast<std::size_t>(explain_trial);
    }
    request.top_k = static_cast<std::size_t>(opts.get("top", 5));
    const auto report = eval::explain_trial(nl, config, request);
    obs::atomic_write_file_or_throw(explain_out,
                                    introspect::to_json(report));
    std::printf("wrote %s (trial %zu, run %s)\n", explain_out.c_str(),
                report.trial, report.run_id.c_str());
  }
  const std::string manifest_out = opts.str("manifest-out");
  if (!manifest_out.empty()) {
    auto manifest = base_manifest("sddd_cli diagnose", path, nl, config);
    manifest.quarantined_trials = result.quarantined_trials();
    manifest.resumed_trials = result.resumed_trials;
    manifest.skipped_trials = result.skipped_trials();
    manifest.degraded = result.degraded;
    if (!json_path.empty()) {
      manifest.artifacts.push_back({"result_json", json_path});
    }
    if (!config.checkpoint_path.empty()) {
      manifest.artifacts.push_back({"checkpoint", config.checkpoint_path});
    }
    if (!explain_out.empty()) {
      manifest.artifacts.push_back({"explain", explain_out});
    }
    introspect::write_manifest(manifest, manifest_out);
    std::printf("wrote %s\n", manifest_out.c_str());
  }
  if (!obs::ledger_out_path().empty()) {
    obs::LedgerRecord rec;
    rec.run_id =
        obs::hex64(eval::experiment_fingerprint(nl.name(), config));
    rec.tool = "diagnose";
    rec.circuit = nl.name();
    const char* sha = std::getenv("SDDD_GIT_SHA");
    rec.git_sha = sha != nullptr ? sha : "";
    rec.seed = config.seed;
    rec.threads = runtime::thread_count();
    rec.mc_samples = config.mc_samples;
    rec.n_chips = config.n_chips;
    rec.wall_seconds = result.wall_seconds;
    const eval::PhaseBreakdown& ph = result.phases;
    rec.phases["setup_s"] = ph.setup_seconds;
    rec.phases["calibration_s"] = ph.calibration_seconds;
    rec.phases["trials_s"] = ph.trials_seconds;
    rec.phases["dict_build_cpu_s"] = ph.dict_build_cpu_seconds;
    rec.phases["score_cpu_s"] = ph.score_cpu_seconds;
    rec.counters = obs::MetricsRegistry::instance().snapshot().counters;
    rec.peak_rss_kb = obs::read_peak_rss_kb();
    if (!manifest_out.empty()) {
      rec.manifest_fnv =
          obs::hex64(introspect::fnv1a_file(manifest_out));
    }
    if (!json_path.empty()) {
      rec.result_path = json_path;
      rec.result_fnv =
          obs::hex64(introspect::fnv1a_file(json_path));
    }
    rec.unix_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    if (obs::append_ledger_record(obs::ledger_out_path(), rec)) {
      std::printf("ledger: appended run %s to %s\n", rec.run_id.c_str(),
                  obs::ledger_out_path().c_str());
    }
  }
  return 0;
}

/// `sddd_cli report`: diff two ledger records.  Run ids may be unique
/// prefixes; with no --a/--b the last two records are compared (--last N
/// widens the lookback so `--last 3` compares against two runs ago).
int cmd_report(const Options& opts) {
  // --ledger is one of the shared observability flags, so by the time we
  // run it has already been consumed into ledger_out_path().
  const std::string ledger_path =
      !obs::ledger_out_path().empty() ? obs::ledger_out_path()
                                      : opts.str("ledger", "sddd_ledger.jsonl");
  const obs::LedgerFile file = obs::load_ledger(ledger_path);
  if (file.skipped_lines != 0) {
    std::fprintf(stderr, "warning: %zu malformed line(s) in %s skipped\n",
                 file.skipped_lines, ledger_path.c_str());
  }
  if (file.records.empty()) {
    std::fprintf(stderr, "no valid records in %s\n", ledger_path.c_str());
    return 1;
  }
  const auto find_by_prefix =
      [&file](const std::string& prefix) -> const obs::LedgerRecord* {
    for (auto it = file.records.rbegin(); it != file.records.rend(); ++it) {
      if (it->run_id.rfind(prefix, 0) == 0) return &*it;
    }
    return nullptr;
  };
  const obs::LedgerRecord* a = nullptr;
  const obs::LedgerRecord* b = nullptr;
  const std::string id_a = opts.str("a");
  const std::string id_b = opts.str("b");
  if (!id_a.empty() || !id_b.empty()) {
    if (id_a.empty() || id_b.empty()) {
      std::fprintf(stderr, "report: --a and --b must be given together\n");
      return 2;
    }
    a = find_by_prefix(id_a);
    b = find_by_prefix(id_b);
    if (a == nullptr || b == nullptr) {
      std::fprintf(stderr, "report: run id %s not found in %s\n",
                   (a == nullptr ? id_a : id_b).c_str(), ledger_path.c_str());
      return 1;
    }
  } else {
    const auto last = static_cast<std::size_t>(opts.get("last", 2));
    if (last < 2 || file.records.size() < last) {
      std::fprintf(stderr,
                   "report: need at least %zu records in %s (have %zu)\n",
                   std::max<std::size_t>(last, 2), ledger_path.c_str(),
                   file.records.size());
      return 1;
    }
    a = &file.records[file.records.size() - last];
    b = &file.records.back();
  }
  const obs::LedgerDiff diff = obs::diff_ledger_records(*a, *b);
  std::fputs(obs::ledger_diff_to_text(diff).c_str(), stdout);
  const std::string json_path = opts.str("json");
  if (!json_path.empty()) {
    obs::atomic_write_file_or_throw(json_path, obs::ledger_diff_to_json(diff));
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

int cmd_explain(const std::filesystem::path& path, const Options& opts) {
  auto nl = load(path);
  if (nl.dff_count() > 0) nl = netlist::full_scan_transform(nl);
  const eval::ExperimentConfig config = diagnose_config_from(opts);
  eval::ExplainRequest request;
  const long trial = opts.get("trial", -1);
  if (trial >= 0) request.trial = static_cast<std::size_t>(trial);
  request.top_k = static_cast<std::size_t>(opts.get("top", 5));
  const auto report = eval::explain_trial(nl, config, request);

  const std::string out = opts.str("out", "explain.json");
  obs::atomic_write_file_or_throw(out, introspect::to_json(report));
  std::printf("wrote %s\n", out.c_str());
  const std::string md_path = opts.str("md");
  if (!md_path.empty()) {
    obs::atomic_write_file_or_throw(md_path, introspect::to_markdown(report));
    std::printf("wrote %s\n", md_path.c_str());
  }
  const std::string manifest_out = opts.str("manifest-out");
  if (!manifest_out.empty()) {
    auto manifest = base_manifest("sddd_cli explain", path, nl, config);
    manifest.artifacts.push_back({"explain", out});
    if (!md_path.empty()) {
      manifest.artifacts.push_back({"explain_md", md_path});
    }
    introspect::write_manifest(manifest, manifest_out);
    std::printf("wrote %s\n", manifest_out.c_str());
  }

  std::printf("%s trial %zu (run %s): %zu suspects, clk=%.1f, "
              "%zu MC samples\n",
              report.circuit.c_str(), report.trial, report.run_id.c_str(),
              report.n_suspects, report.clk, report.mc_samples);
  if (!report.candidates.empty()) {
    const auto& top = report.candidates.front();
    std::printf("top-1: arc %u%s, phi_sum=%.6g over %zu patterns%s\n",
                top.arc,
                top.arc == report.injected_arc ? " (the injected defect)"
                                               : "",
                top.phi_sum, report.n_patterns,
                report.near_tie ? "  [NEAR TIE with rank 2]" : "");
  }
  for (const auto& v : report.separability) {
    std::printf("  %-12.*s rank-1 %s rank-2 at 95%%\n",
                static_cast<int>(diagnosis::method_name(v.method).size()),
                diagnosis::method_name(v.method).data(),
                v.separable_at_95 ? "separable from" : "NOT separable from");
  }
  return 0;
}

// The local store() writer above shadows the sddd::store namespace, so
// the dictionary-store commands reach it through an alias.
namespace dstore = sddd::store;

netlist::Netlist load_combinational(const std::filesystem::path& path) {
  auto nl = load(path);
  if (nl.dff_count() > 0) nl = netlist::full_scan_transform(nl);
  return nl;
}

dstore::StoreBuildConfig dict_build_config_from(const Options& opts) {
  dstore::StoreBuildConfig config;
  config.mc_samples = static_cast<std::size_t>(opts.get("samples", 250));
  config.seed = static_cast<std::uint64_t>(opts.get("seed", 2003));
  config.pattern_sites =
      static_cast<std::size_t>(opts.get("pattern-sites", 6));
  config.max_patterns = static_cast<std::size_t>(opts.get("max-patterns", 24));
  config.max_suspects =
      static_cast<std::size_t>(opts.get("max-suspects", 300));
  config.calibration_sites =
      static_cast<std::size_t>(opts.get("calibration-sites", 16));
  config.clk_site_quantile = opts.get_double("quantile", 0.7);
  config.clk_override = opts.get_double("clk", 0.0);
  return config;
}

int cmd_dict_build(const std::filesystem::path& netlist_path,
                   const std::string& out_path, const Options& opts) {
  const auto nl = load_combinational(netlist_path);
  const auto info =
      dstore::build_dictionary_store(nl, dict_build_config_from(opts), out_path);
  std::printf("wrote %s: run %s, clk=%.1f, %zu patterns x %zu outputs x "
              "%zu arcs, %llu bytes\n",
              out_path.c_str(), info.run_id.c_str(), info.clk,
              info.n_patterns, info.n_outputs, info.n_arcs,
              static_cast<unsigned long long>(info.bytes));
  return 0;
}

int cmd_dict_verify(const std::string& path) {
  const dstore::StoreVerifyReport report = dstore::verify_store_file(path);
  if (report.ok) {
    std::printf("%s: ok\n", path.c_str());
    return 0;
  }
  std::printf("%s: CORRUPT (section %s): %s\n", path.c_str(),
              report.bad_section.c_str(), report.message.c_str());
  return 1;
}

int cmd_dict_info(const std::string& path) {
  const dstore::DictionaryStore st(path);
  std::printf("%s\n", path.c_str());
  std::printf("  run %s  circuit %s  seed %llu\n", st.run_id().c_str(),
              st.circuit().c_str(),
              static_cast<unsigned long long>(st.build_seed()));
  std::printf("  clk %.4f  %zu MC samples  %zu patterns  %zu inputs  "
              "%zu outputs  %zu arcs  max_suspects %zu\n",
              st.clk(), st.mc_samples(), st.n_patterns(), st.n_inputs(),
              st.n_outputs(), st.n_arcs(), st.max_suspects());
  std::printf("  %llu bytes, sections:\n",
              static_cast<unsigned long long>(st.file_bytes()));
  for (const auto& sec : st.sections()) {
    std::printf("    %-8s  offset %8llu  %10llu bytes  crc %s\n",
                sec.name.c_str(), static_cast<unsigned long long>(sec.offset),
                static_cast<unsigned long long>(sec.bytes),
                obs::hex64(sec.crc).c_str());
  }
  return 0;
}

int cmd_dict_chips(const std::filesystem::path& netlist_path,
                   const std::string& store_path, const Options& opts) {
  const auto nl = load_combinational(netlist_path);
  const dstore::DictionaryStore st(store_path);
  const auto n_chips = static_cast<std::size_t>(opts.get("chips", 8));
  const auto sampled = dstore::sample_failing_chips(nl, st, n_chips);
  std::vector<dstore::ChipQuery> chips;
  chips.reserve(sampled.size());
  for (std::size_t t = 0; t < sampled.size(); ++t) {
    chips.push_back(dstore::ChipQuery{"chip" + std::to_string(t),
                                     sampled[t].B});
  }
  const std::string request = dstore::make_diagnose_request(
      st.run_id(), opts.str("match", "e"),
      static_cast<std::size_t>(opts.get("top", 10)),
      static_cast<std::uint64_t>(opts.get("deadline-ms", 0)), chips);
  const std::string out_path = opts.str("out");
  if (out_path.empty()) {
    std::printf("%s\n", request.c_str());
    return 0;
  }
  obs::atomic_write_file_or_throw(out_path, request);
  std::printf("wrote %s: %zu failing chips against run %s\n",
              out_path.c_str(), chips.size(), st.run_id().c_str());
  for (std::size_t t = 0; t < sampled.size(); ++t) {
    std::printf("  chip%zu: arc %u size %.4f (sample %zu, %zu failing "
                "cells)\n",
                t, sampled[t].chip.defect_arc, sampled[t].chip.defect_size,
                sampled[t].chip.sample_index, sampled[t].B.failure_count());
  }
  return 0;
}

int cmd_dict_query(const std::string& store_path, const Options& opts) {
  const std::string request_path = opts.str("request");
  if (request_path.empty()) {
    std::fprintf(stderr, "dict query: need --request FILE\n");
    return 2;
  }
  std::ifstream in(request_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "dict query: cannot read %s\n",
                 request_path.c_str());
    return 1;
  }
  std::string request_text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());

  const std::string socket_path = opts.str("socket");
  const auto port = static_cast<int>(opts.get("port", -1));
  std::string response;
  if (!socket_path.empty() || port >= 0) {
    // Relay mode: the request bytes go to the server (stamped with a
    // trace id); unwrapping the trace envelope yields payload bytes
    // byte-identical to the in-process path below.
    dstore::ServeClient client = dstore::ServeClient::connect(socket_path, port);
    dstore::RetryStats stats;
    response = dstore::request_with_retry(client, socket_path, port,
                                         request_text, dstore::RetryPolicy{},
                                         &stats);
    std::string echoed_id;
    std::string payload;
    if (dstore::split_response_envelope(response, &echoed_id, &payload)) {
      response = std::move(payload);
    }
    if (stats.reconnects > 0 || stats.sheds > 0) {
      std::fprintf(stderr,
                   "dict query: %zu attempts, %zu reconnects, %zu sheds "
                   "(trace %s)\n",
                   stats.attempts, stats.reconnects, stats.sheds,
                   echoed_id.c_str());
    }
  } else {
    const dstore::DictionaryStore st(store_path);
    const dstore::StoreQueryEngine engine(st);
    dstore::JsonValue req = dstore::parse_json(request_text);
    // --match and --top override the request's own fields.
    if (!opts.str("match").empty()) {
      req.object["match"] =
          dstore::parse_json(obs::json_string(opts.str("match")));
    }
    if (!opts.str("top").empty()) {
      req.object["top"] = dstore::parse_json(std::to_string(opts.get("top", 0)));
    }
    dstore::BatchQuery query;
    std::string error;
    if (!dstore::parse_batch_query(req, st, 10, &query, &error)) {
      std::fprintf(stderr, "dict query: %s\n", error.c_str());
      return 1;
    }
    response = dstore::diagnose_batch_json(engine, query.chips, query.match_e,
                                           query.top_k);
  }

  const std::string out_path = opts.str("out");
  if (out_path.empty()) {
    std::printf("%s\n", response.c_str());
  } else {
    obs::atomic_write_file_or_throw(out_path, response);
    std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), response.size());
  }
  return 0;
}

int cmd_serve(const Options& opts) {
  dstore::ServerConfig config;
  config.store_paths = opts.positional();
  if (config.store_paths.empty()) {
    std::fprintf(stderr, "serve: need at least one store file\n");
    return 2;
  }
  config.unix_socket = opts.str("socket");
  config.tcp_port = static_cast<int>(opts.get("port", -1));
  if (config.unix_socket.empty() && config.tcp_port < 0) {
    std::fprintf(stderr, "serve: need --socket PATH and/or --port N\n");
    return 2;
  }
  config.max_inflight = static_cast<std::size_t>(opts.get("max-inflight", 4));
  config.default_deadline_ms =
      static_cast<std::uint64_t>(opts.get("deadline-ms", 0));
  config.default_top_k = static_cast<std::size_t>(opts.get("top", 10));
  config.test_hold_seconds = opts.get_double("hold-s", 0.0);
  const char* sha = std::getenv("SDDD_GIT_SHA");
  config.git_sha = sha != nullptr ? sha : "";
  return dstore::serve_main(config);
}

int cmd_stats(const Options& opts, bool prom) {
  const std::string socket_path = opts.str("socket");
  const auto port = static_cast<int>(opts.get("port", -1));
  if (socket_path.empty() && port < 0) {
    std::fprintf(stderr, "stats: need --socket PATH or --port N\n");
    return 2;
  }
  const double watch_s = opts.get_double("watch", 0.0);
  const std::string request =
      prom ? "{\"op\":\"stats\",\"format\":\"prom\"}" : "{\"op\":\"stats\"}";
  dstore::ServeClient client = dstore::ServeClient::connect(socket_path, port);
  while (true) {
    dstore::RetryStats stats;
    const std::string response = dstore::request_with_retry(
        client, socket_path, port, request, dstore::RetryPolicy{}, &stats);
    const std::string payload = dstore::response_payload(response);
    if (prom) {
      // The prom payload quotes the exposition text; print it raw.
      const dstore::JsonValue v = dstore::parse_json(payload);
      std::printf("%s", v.get_string("text").c_str());
    } else {
      std::printf("%s\n", payload.c_str());
    }
    std::fflush(stdout);
    if (watch_s <= 0.0) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(watch_s));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::configure_observability_from_args(&argc, argv);
  runtime::configure_threads_from_args(&argc, argv);
  const bool lint = consume_flag(&argc, argv, "--lint");
  if (argc < 2) usage_and_exit();
  const std::string cmd = argv[1];
  try {
    // Commands that read a netlist take it as argv[2]; synth writes one.
    const bool has_input_netlist =
        argc >= 3 && (cmd == "info" || cmd == "convert" || cmd == "scan" ||
                      cmd == "atpg" || cmd == "diagnose" || cmd == "explain");
    if (lint && has_input_netlist && !preflight_lint(argv[2])) {
      std::fprintf(stderr, "lint: error findings; aborting %s\n", cmd.c_str());
      return 1;
    }
    if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
    if (cmd == "convert" && argc >= 4) return cmd_convert(argv[2], argv[3]);
    if (cmd == "scan" && argc >= 4) return cmd_scan(argv[2], argv[3]);
    if (cmd == "synth" && argc >= 3) {
      return cmd_synth(argv[2], Options(argc, argv, 3));
    }
    if (cmd == "atpg" && argc >= 3) {
      return cmd_atpg(argv[2], Options(argc, argv, 3));
    }
    if (cmd == "diagnose" && argc >= 3) {
      const bool resume = consume_flag(&argc, argv, "--resume");
      return cmd_diagnose(argv[2], Options(argc, argv, 3), resume);
    }
    if (cmd == "report") {
      return cmd_report(Options(argc, argv, 2));
    }
    if (cmd == "explain" && argc >= 3) {
      return cmd_explain(argv[2], Options(argc, argv, 3));
    }
    if (cmd == "dict" && argc >= 4) {
      const std::string sub = argv[2];
      if (sub == "build" && argc >= 5) {
        return cmd_dict_build(argv[3], argv[4], Options(argc, argv, 5));
      }
      if (sub == "verify") return cmd_dict_verify(argv[3]);
      if (sub == "info") return cmd_dict_info(argv[3]);
      if (sub == "chips" && argc >= 5) {
        return cmd_dict_chips(argv[3], argv[4], Options(argc, argv, 5));
      }
      if (sub == "query") return cmd_dict_query(argv[3], Options(argc, argv, 4));
    }
    if (cmd == "serve" && argc >= 3) return cmd_serve(Options(argc, argv, 2));
    if (cmd == "stats") {
      const bool prom = consume_flag(&argc, argv, "--prom");
      consume_flag(&argc, argv, "--json");  // the default rendering
      return cmd_stats(Options(argc, argv, 2), prom);
    }
  } catch (const sddd::Error& e) {
    // what() already carries the "[<code>] " prefix.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage_and_exit();
}
