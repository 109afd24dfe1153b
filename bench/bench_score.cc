// bench_score - Per-chip scoring throughput of Diagnoser::diagnose() with
// a SignatureCache shared across chips against one built per call, on
// ISCAS-89-class stand-ins.
//
// For each circuit and each thread count in {1, --threads}, the harness
// diagnoses the same population of failing chips three ways:
//   scalar       - cache = nullptr: each diagnose() builds its own
//                  call-local cache, so every chip re-runs the Monte-Carlo
//                  column builds (the leg keeps its old name; the scalar
//                  scoring path it once timed no longer exists);
//   kernel cold  - a fresh SignatureCache, first pass over every chip pays
//                  the one-time column builds (the amortized cost);
//   kernel warm  - a second pass over the same chips: every (pattern,
//                  suspect) column is already cached, so scoring is pure
//                  packed-phi evaluation - the steady state a production
//                  run reaches once the first few dies off a tester have
//                  been diagnosed (hundreds of chips share one pattern
//                  set, so first-visit builds are noise, not the regime).
// Scoring time is attributed by the diag.score_ns counter delta (CPU ns,
// equal to wall at 1 thread), so the headline "speedup_scoring" isolates
// exactly the loop the kernel replaces.  Every kernel result is asserted
// BIT-IDENTICAL to its scalar twin - suspects, scores, keys, captured phi,
// ranks - and the warm pass to the cold pass, and the 1-thread results to
// the N-thread results; a mismatch aborts the benchmark, so a
// BENCH_score.json with "bit_identical": true is itself the referee's
// verdict.
//
// Usage:
//   bench_score [--scale S] [--samples N] [--chips N] [--seed N]
//               [--threads N] [--json FILE] [--git-sha SHA] [circuit ...]
//
// Defaults favour a laptop-scale run: s9234 stand-in at scale 0.35, 200
// Monte-Carlo samples, 8 chips.  Timings append to BENCH_history.jsonl via
// tools/run_benchmarks.sh.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/diag_patterns.h"
#include "atpg/pdf_atpg.h"
#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/signature_matrix.h"
#include "logicsim/bitsim.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "obs/atomic_file.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "runtime/parallel_for.h"
#include "stats/rng.h"
#include "stats/sample_vector.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace {

using namespace sddd;
using diagnosis::BehaviorMatrix;
using diagnosis::Diagnoser;
using diagnosis::DiagnosisResult;
using diagnosis::Method;
using netlist::ArcId;

struct BenchConfig {
  double scale = 0.35;
  std::size_t mc_samples = 200;
  std::size_t n_chips = 8;
  std::uint64_t seed = 2003;
  std::size_t threads = 0;  // resolved via runtime::thread_count()
  std::vector<std::string> circuits;
};

void usage() {
  std::fprintf(stderr,
               "usage: bench_score [--scale S] [--samples N] [--chips N]\n"
               "                   [--seed N] [--threads N] [--json FILE]\n"
               "                   [--git-sha SHA] [circuit ...]\n"
               "%s",
               obs::observability_usage());
}

/// One circuit's experiment environment, mirroring ExperimentSetup's
/// dictionary-side constants (eval/experiment.cc) so the measured scoring
/// loop is the one the Table I harness runs.
struct ScoreBench {
  netlist::Netlist nl;
  netlist::Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  timing::DelayField dict_field;
  timing::DelayField inst_field;
  logicsim::BitSimulator logic_sim;
  timing::DynamicTimingSimulator dict_sim;
  timing::DynamicTimingSimulator inst_sim;
  defect::DefectSizeModel size_model;
  std::vector<logicsim::PatternPair> patterns;
  double clk = 0.0;
  std::vector<Method> methods = {Method::kSimI, Method::kSimII,
                                 Method::kSimIII, Method::kRev};
  std::vector<BehaviorMatrix> chips;

  ScoreBench(const netlist::IscasProfile& profile, const BenchConfig& cfg)
      : nl(netlist::make_standin(profile, cfg.scale, cfg.seed)),
        lev(nl),
        model(nl, lib),
        dict_field(model, cfg.mc_samples, 0.03, cfg.seed ^ 0xd1c7ULL),
        inst_field(model, cfg.mc_samples, 0.03, cfg.seed ^ 0xc41bULL),
        logic_sim(nl, lev),
        dict_sim(dict_field, lev),
        inst_sim(inst_field, lev),
        size_model(model.mean_cell_delay(), 0.5, 1.0, 0.5,
                   cfg.seed ^ 0x5e1fULL) {
    stats::Rng rng(cfg.seed, 0xbe7cULL);
    // One shared diagnostic pattern set over a few defect sites - the
    // production shape the cache targets: every failing die off the tester
    // was tested with the same patterns, so suspect columns repeat across
    // chips.  Diagnostic (longest-path) patterns also sensitize the large
    // cones that put |S| in the paper's 100-600 range; random pairs leave
    // |S| in the tens and the scoring loop unrepresentative.
    const atpg::DiagnosticPatternConfig pattern_config;
    std::vector<ArcId> sites;
    for (std::size_t draw = 0; draw < nl.arc_count() && sites.size() < 3;
         ++draw) {
      const auto site = static_cast<ArcId>(
          rng.below(static_cast<std::uint32_t>(nl.arc_count())));
      auto site_patterns = atpg::generate_diagnostic_patterns(
          model, lev, site, pattern_config, rng);
      if (site_patterns.empty()) continue;
      // The patterns must actually launch a transition through the site,
      // or no defect there can ever fail (the experiment's testability
      // gate).
      if (atpg::site_best_nominal_delay(model, lev, site_patterns, site) <=
          0.0) {
        continue;
      }
      sites.push_back(site);
      for (auto& p : site_patterns) patterns.push_back(std::move(p));
    }
    if (sites.empty()) {
      throw std::runtime_error("bench_score: no testable defect site");
    }
    stats::SampleVector delta(dict_field.sample_count(), 0.0);
    for (const auto& p : patterns) {
      const paths::TransitionGraph tg(logic_sim, lev, p);
      const auto m = dict_sim.simulate(tg);
      delta.max_with(dict_sim.induced_delay(tg, m));
    }
    clk = delta.quantile(0.9);

    // The chip population: chip c carries a defect on one of the targeted
    // sites (cycled), drawn as a different field instance, size escalated
    // until the chip observably fails under the shared pattern set.
    for (std::size_t c = 0; c < cfg.n_chips; ++c) {
      const ArcId arc = sites[c % sites.size()];
      bool found = false;
      double size = size_model.marginal_mean();
      for (int tries = 0; tries < 16 && !found; ++tries) {
        auto B = diagnosis::observe_behavior(
            inst_sim, logic_sim, lev, patterns, c % cfg.mc_samples,
            std::make_pair(arc, size), clk);
        if (B.any_failure()) {
          chips.push_back(std::move(B));
          found = true;
        }
        size *= 2.0;
      }
      if (!found) {
        throw std::runtime_error("bench_score: no failing chip producible");
      }
    }
  }

  DiagnosisResult diagnose(const BehaviorMatrix& B,
                           const diagnosis::SignatureCache* cache) const {
    diagnosis::DiagnoserConfig config;
    config.max_suspects = 300;
    config.capture_phi = true;
    config.cache = cache;
    const Diagnoser d(dict_sim, logic_sim, lev, size_model, config);
    return d.diagnose(patterns, B, methods, clk);
  }
};

bool identical(const DiagnosisResult& a, const DiagnosisResult& b) {
  if (a.suspects != b.suspects || a.scores != b.scores || a.keys != b.keys ||
      a.phi != b.phi) {
    return false;
  }
  for (const Method m : a.methods) {
    const auto ra = a.ranked(m);
    const auto rb = b.ranked(m);
    if (ra.size() != rb.size()) return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (ra[i].arc != rb[i].arc || ra[i].score != rb[i].score) return false;
    }
  }
  return true;
}

double score_ns_delta(const obs::MetricsSnapshot& before) {
  return obs::MetricsSnapshot::delta_ns_to_seconds(
      before, obs::MetricsRegistry::instance().snapshot(), "diag.score_ns");
}

struct RunResult {
  std::size_t threads = 0;
  double scalar_score_s = 0.0;       // diag.score_ns, all chips, scalar
  double kernel_cold_score_s = 0.0;  // pass 1, all chips: builds + phi
  double kernel_warm_score_s = 0.0;  // pass 2, all chips: cached columns
  double scalar_wall_s = 0.0;
  double kernel_wall_s = 0.0;
  double speedup_scoring = 0.0;  // per-chip scalar / per-chip warm kernel
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bytes = 0;
  std::size_t suspects = 0;
};

}  // namespace

int main(int argc, char** argv) {
  obs::configure_observability_from_args(&argc, argv);
  BenchConfig cfg;
  std::string json_path = "BENCH_score.json";
  const char* sha_env = std::getenv("SDDD_GIT_SHA");
  std::string git_sha = sha_env != nullptr ? sha_env : "unknown";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      cfg.scale = std::atof(next());
    } else if (arg == "--samples") {
      cfg.mc_samples = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--chips") {
      cfg.n_chips = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--git-sha") {
      git_sha = next();
    } else if (arg == "--threads") {
      sddd::runtime::set_thread_count(
          static_cast<std::size_t>(std::atoi(next())));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    } else {
      cfg.circuits.push_back(arg);
    }
  }
  if (cfg.circuits.empty()) cfg.circuits.push_back("s9234");
  const std::size_t max_threads = runtime::thread_count();

  SDDD_LOG_INFO("== scoring kernel benchmark ==");
  SDDD_LOG_INFO("scale=%.2f samples=%zu chips=%zu seed=%llu threads=%zu",
                cfg.scale, cfg.mc_samples, cfg.n_chips,
                static_cast<unsigned long long>(cfg.seed), max_threads);

  // One id per invocation: stamped into the JSON artifact, the ledger
  // record and the flight recorder (see bench_table1 for the rationale).
  const std::string run_id =
      obs::new_invocation_run_id("bench_score", git_sha);
  obs::Recorder::instance().set_run_id(run_id);

  const auto t0 = std::chrono::steady_clock::now();
  bool all_identical = true;
  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"score\",\n"
     << "  \"run_id\": \"" << run_id << "\",\n"
     << "  \"git_sha\": \"" << git_sha << "\",\n"
     << "  \"threads\": " << max_threads << ",\n"
     << "  \"scale\": " << cfg.scale << ",\n"
     << "  \"samples\": " << cfg.mc_samples << ",\n"
     << "  \"chips\": " << cfg.n_chips << ",\n"
     << "  \"seed\": " << cfg.seed << ",\n";

  std::ostringstream circuits_js;
  for (std::size_t ci = 0; ci < cfg.circuits.size(); ++ci) {
    const auto& name = cfg.circuits[ci];
    const auto* profile = netlist::find_profile(name);
    if (profile == nullptr) {
      std::fprintf(stderr, "unknown circuit: %s\n", name.c_str());
      return 2;
    }
    const auto circuit_t0 = std::chrono::steady_clock::now();
    const ScoreBench bench(*profile, cfg);
    SDDD_LOG_INFO("%s: %zu arcs, %zu chips, clk=%.1f", name.c_str(),
                  bench.nl.arc_count(), bench.chips.size(), bench.clk);

    // 1-thread reference results, asserted equal at every thread count.
    std::vector<DiagnosisResult> reference;
    std::vector<RunResult> runs;
    std::vector<std::size_t> widths = {1};
    if (max_threads > 1) widths.push_back(max_threads);
    for (const std::size_t width : widths) {
      runtime::set_thread_count(width);
      if (width > 1) bench.dict_sim.prewarm();
      RunResult run;
      run.threads = width;

      // Scalar reference.
      auto wall0 = std::chrono::steady_clock::now();
      auto snap = obs::MetricsRegistry::instance().snapshot();
      std::vector<DiagnosisResult> scalar;
      scalar.reserve(bench.chips.size());
      for (const auto& B : bench.chips) {
        scalar.push_back(bench.diagnose(B, nullptr));
      }
      run.scalar_score_s = score_ns_delta(snap);
      run.scalar_wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall0)
              .count();

      // Kernel, pass 1 (cold): a fresh cache absorbs every column build
      // the chip population needs.
      const diagnosis::SignatureCache cache(bench.dict_sim, bench.logic_sim,
                                            bench.lev, bench.size_model,
                                            bench.clk, true);
      wall0 = std::chrono::steady_clock::now();
      snap = obs::MetricsRegistry::instance().snapshot();
      std::vector<DiagnosisResult> kernel;
      kernel.reserve(bench.chips.size());
      for (const auto& B : bench.chips) {
        kernel.push_back(bench.diagnose(B, &cache));
      }
      run.kernel_cold_score_s = score_ns_delta(snap);
      // Pass 2 (warm): same chips, fully-populated cache - steady-state
      // scoring throughput, and a determinism check (warm == cold results).
      snap = obs::MetricsRegistry::instance().snapshot();
      std::vector<DiagnosisResult> warm;
      warm.reserve(bench.chips.size());
      for (const auto& B : bench.chips) {
        warm.push_back(bench.diagnose(B, &cache));
      }
      run.kernel_warm_score_s = score_ns_delta(snap);
      run.kernel_wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall0)
              .count();

      const auto stats = cache.stats();
      run.cache_hits = stats.hits;
      run.cache_misses = stats.misses;
      run.cache_bytes = stats.bytes;
      run.suspects = scalar.front().suspects.size();

      // Per-chip scoring speedup: scalar vs warm kernel (the steady state
      // every chip after cache fill enjoys).
      const double scalar_per_chip =
          run.scalar_score_s / static_cast<double>(bench.chips.size());
      const double warm_per_chip =
          run.kernel_warm_score_s / static_cast<double>(bench.chips.size());
      run.speedup_scoring =
          warm_per_chip > 0.0 ? scalar_per_chip / warm_per_chip : 0.0;

      // The referee: every kernel result bit-identical to its scalar twin,
      // warm pass to cold pass, and every width to the 1-thread reference.
      for (std::size_t c = 0; c < bench.chips.size(); ++c) {
        if (!identical(scalar[c], kernel[c])) {
          all_identical = false;
          std::fprintf(stderr,
                       "%s: scalar/kernel MISMATCH chip %zu at %zu threads\n",
                       name.c_str(), c, width);
        }
        if (!identical(kernel[c], warm[c])) {
          all_identical = false;
          std::fprintf(stderr,
                       "%s: cold/warm MISMATCH chip %zu at %zu threads\n",
                       name.c_str(), c, width);
        }
        if (reference.empty()) continue;
        if (!identical(reference[c], kernel[c])) {
          all_identical = false;
          std::fprintf(stderr,
                       "%s: thread-count MISMATCH chip %zu at %zu threads\n",
                       name.c_str(), c, width);
        }
      }
      if (reference.empty()) reference = std::move(scalar);

      std::printf(
          "%-8s %2zu thr | scalar %7.3fs  kernel cold %7.3fs  warm %7.3fs "
          "| scoring speedup %5.1fx | %zu suspects, cache %llu/%llu "
          "hit/miss\n",
          name.c_str(), width, run.scalar_score_s, run.kernel_cold_score_s,
          run.kernel_warm_score_s, run.speedup_scoring, run.suspects,
          static_cast<unsigned long long>(run.cache_hits),
          static_cast<unsigned long long>(run.cache_misses));
      runs.push_back(run);
    }
    runtime::set_thread_count(max_threads);

    const double circuit_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      circuit_t0)
            .count();
    circuits_js << "    {\"name\": \"" << name << "\", \"seconds\": "
                << circuit_seconds << ", \"arcs\": " << bench.nl.arc_count()
                << ", \"patterns\": " << bench.patterns.size()
                << ", \"suspects\": " << runs.front().suspects
                << ",\n     \"runs\": [\n";
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const RunResult& run = runs[r];
      circuits_js << "      {\"threads\": " << run.threads
                  << ", \"scalar_score_s\": " << run.scalar_score_s
                  << ", \"kernel_cold_score_s\": " << run.kernel_cold_score_s
                  << ", \"kernel_warm_score_s\": " << run.kernel_warm_score_s
                  << ",\n       \"scalar_wall_s\": " << run.scalar_wall_s
                  << ", \"kernel_wall_s\": " << run.kernel_wall_s
                  << ", \"speedup_scoring\": " << run.speedup_scoring
                  << ",\n       \"cache_hits\": " << run.cache_hits
                  << ", \"cache_misses\": " << run.cache_misses
                  << ", \"cache_bytes\": " << run.cache_bytes << "}"
                  << (r + 1 < runs.size() ? "," : "") << "\n";
    }
    circuits_js << "    ]}" << (ci + 1 < cfg.circuits.size() ? "," : "")
                << "\n";
  }

  const double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  js << "  \"bit_identical\": " << (all_identical ? "true" : "false")
     << ",\n"
     << "  \"total_seconds\": " << total_seconds << ",\n"
     << "  \"circuits\": [\n"
     << circuits_js.str() << "  ]\n}\n";

  if (!json_path.empty()) {
    obs::atomic_write_file_or_throw(json_path, js.str());
    SDDD_LOG_INFO("timings written to %s", json_path.c_str());
  }
  std::printf("total wall time: %.2fs; bit-identical: %s\n", total_seconds,
              all_identical ? "yes" : "NO");

  if (!obs::ledger_out_path().empty()) {
    obs::LedgerRecord rec;
    rec.run_id = run_id;
    rec.tool = "bench_score";
    rec.git_sha = git_sha;
    rec.seed = cfg.seed;
    rec.threads = max_threads;
    rec.mc_samples = cfg.mc_samples;
    rec.n_chips = cfg.n_chips;
    rec.wall_seconds = total_seconds;
    for (const auto& name : cfg.circuits) {
      if (!rec.circuit.empty()) rec.circuit.push_back(',');
      rec.circuit += name;
    }
    rec.counters = obs::MetricsRegistry::instance().snapshot().counters;
    rec.peak_rss_kb = obs::read_peak_rss_kb();
    rec.result_path = json_path;
    rec.unix_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    if (obs::append_ledger_record(obs::ledger_out_path(), rec)) {
      SDDD_LOG_INFO("ledger: appended run %s to %s", rec.run_id.c_str(),
                    obs::ledger_out_path().c_str());
    }
  }
  return all_identical ? 0 : 1;
}
