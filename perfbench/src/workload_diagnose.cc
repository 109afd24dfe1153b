// diagnose - chips diagnosed back to back by the in-memory Diagnoser
// (packed kernel + SignatureCache) against one shared pattern set.
//
// Column builds (timing) and phi scoring (diagnosis) dominate here, while
// they are a few percent of table1 and serve reads its columns from the
// store; without this workload a change to the scoring loop or the cache
// could slow diagnosis unseen.  The chips share their patterns, so the
// cache, cold at the start of each pass, warms up over the run.  Chips are
// diagnosed on one thread, as inside the experiment's trials, where the
// diagnoser's nested suspect loop runs inline.  (Fanned out over the pool,
// a ~1 ms chip spends most of its time joining 4 threads, and any thread
// the host delays stalls the chip.)
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "diagnosis/dictionary.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/error_fn.h"
#include "diagnosis/signature_matrix.h"
#include "netlist/iscas_catalog.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

using namespace sddd;

namespace {

/// Distinct chips per run.  Drawing one takes dozens of redraws (a random
/// site rarely lies where the shared patterns can see it), so the pool is
/// kept small and diagnosed in rotation.
constexpr std::size_t kPoolChips = 64;

/// Diagnoses per run: the pool's first pass runs on a cold cache (~2 s),
/// after which a chip takes ~3 ms on the reference host, so the pass lasts
/// about --seconds there.
std::size_t diagnoses_per_run(const Options& opts) {
  return static_cast<std::size_t>(std::max(1.0, opts.seconds) * 300.0);
}

/// Consecutive diagnoses per tail window: p99 has ten samples beyond it.
/// The cold-cache start falls in the first window; it shows in
/// chips_per_s and in timing.column_build_s.
constexpr std::size_t kTailWindow = 1000;

/// The run fails its output check below this Alg_rev top-11 success; the
/// measured rate is ~35%, a scorer that ranks at random scores ~5%.
constexpr double kHitFloorPct = 15.0;

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> chip_ms;
  std::vector<diagnosis::DiagnosisResult> results;  ///< each chip's last
  diagnosis::DiagnosisResult cold_first;  ///< chip 0's first, on the cold cache
  std::uint64_t failed = 0;
  diagnosis::SignatureCache::Stats cache;
};

/// Diagnoses `n` chips back to back, rotating over the pool, against a
/// fresh (cold) cache.
Pass diagnose_all(const World& W,
                  std::span<const logicsim::PatternPair> patterns,
                  const std::vector<DrawnChip>& chips, std::size_t n,
                  SpanRecorder& spans) {
  const std::vector<diagnosis::Method> methods = W.config.methods;
  const diagnosis::SignatureCache cache(W.dict_sim, W.logic_sim, W.lev,
                                        W.size_model, W.clk, true);
  diagnosis::DiagnoserConfig dcfg;
  dcfg.max_suspects = W.config.max_suspects;
  dcfg.cache = &cache;
  const diagnosis::Diagnoser diagnoser(W.dict_sim, W.logic_sim, W.lev,
                                       W.size_model, dcfg);
  Pass pass;
  pass.results.resize(chips.size());
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % chips.size();
    const double c0 = now_s();
    try {
      const SpanRecorder::Scope span(spans, "diagnosis.diagnose", c);
      pass.results[c] = diagnoser.diagnose(patterns, chips[c].B, methods,
                                           W.clk);
      if (i == 0) pass.cold_first = pass.results[0];
    } catch (const std::exception& e) {
      ++pass.failed;
      std::fprintf(stderr, "perfbench: diagnose chip %zu threw: %s\n", c,
                   e.what());
    }
    pass.chip_ms.push_back((now_s() - c0) * 1e3);
  }
  pass.wall_s = now_s() - t0;
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.cache = cache.stats();
  return pass;
}

/// Reference scores from the parts the diagnoser is built from: each
/// suspect's E column straight from its PatternSlice, the scalar phi()
/// and a ScoreAccumulator per method.  Returns the largest relative key
/// difference against `result`.
double oracle_key_error(const World& W,
                        std::span<const logicsim::PatternPair> patterns,
                        const diagnosis::BehaviorMatrix& B,
                        const diagnosis::DiagnosisResult& result) {
  const std::size_t n_suspects = result.suspects.size();
  std::vector<std::vector<diagnosis::ScoreAccumulator>> acc(
      result.methods.size());
  for (std::size_t m = 0; m < result.methods.size(); ++m) {
    acc[m].assign(n_suspects, diagnosis::ScoreAccumulator(result.methods[m]));
  }
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const diagnosis::PatternSlice slice(W.dict_sim, W.logic_sim, W.lev,
                                        patterns[j], W.clk);
    std::vector<bool> b(B.output_count());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = B.at(i, j);
    for (std::size_t s = 0; s < n_suspects; ++s) {
      const std::vector<double> col =
          slice.e_column(result.suspects[s], W.size_model);
      const double p = diagnosis::phi(col, b);
      for (auto& per_method : acc) per_method[s].add_phi(p);
    }
  }
  double worst = 0.0;
  for (std::size_t m = 0; m < result.methods.size(); ++m) {
    for (std::size_t s = 0; s < n_suspects; ++s) {
      const double want = acc[m][s].ranking_key(patterns.size());
      const double got = result.keys[m][s];
      const double err =
          std::abs(want - got) / std::max(1.0, std::abs(want));
      worst = std::max(worst, std::isfinite(err) ? err : 1.0);
    }
  }
  return worst;
}

}  // namespace

void run_diagnose(const Options& opts, SpanRecorder& spans, Result& out) {
  const netlist::Netlist nl = make_circuit();
  const eval::ExperimentConfig cfg = table1_config(0);

  // Set-up: models, both Monte-Carlo worlds, clk calibration, the shared
  // pattern set and the dictionary simulator's delay rows.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::vector<logicsim::PatternPair> patterns;
  for (int i = 0; i < (opts.trace ? 1 : 3); ++i) {
    const double t0 = now_s();
    world = std::make_unique<World>(nl, cfg, spans);
    patterns = store_patterns(*world, spans);
    world->dict_sim.prewarm();
    setup_s.push_back(now_s() - t0);
  }
  const World& W = *world;

  // Inputs: failing chips drawn from the instance world (not timed).
  std::vector<DrawnChip> chips;
  std::size_t draws = 0;
  for (DrawnChip& c : draw_chips(W, patterns, opts.seed, kPoolChips, spans)) {
    draws += c.draws;
    if (c.failing) chips.push_back(std::move(c));
  }
  if (chips.size() < kPoolChips / 2) {
    throw std::runtime_error("diagnose: most drawn chips never failed");
  }
  const std::size_t n = diagnoses_per_run(opts);
  sddd::runtime::set_thread_count(1);

  SpanRecorder untraced(false);
  const Pass pass = diagnose_all(W, patterns, chips, n, untraced);
  const auto k = static_cast<std::size_t>(
      netlist::find_profile("s9234")->table1_k[2]);
  std::size_t hits = 0;
  for (std::size_t c = 0; c < chips.size(); ++c) {
    hits += pass.results[c].hit_within(diagnosis::Method::kRev,
                                       chips[c].chip.defect_arc, k)
                ? 1U
                : 0U;
  }
  const double hit_pct =
      100.0 * static_cast<double>(hits) / static_cast<double>(chips.size());
  out.attempted = n;
  out.failed = pass.failed;
  if (pass.failed != 0) out.fail_check("diagnose: chips threw");
  if (hit_pct < kHitFloorPct) {
    out.fail_check("diagnose: Alg_rev top-" + std::to_string(k) +
                   " success " + format_number(hit_pct) + "% is below " +
                   format_number(kHitFloorPct) + "%");
  }

  const double tail_p = tail_percentile(kTailWindow);
  out.set("chips_per_s", static_cast<double>(n) / pass.wall_s, "1/s");
  out.set("p50_ms", median(pass.chip_ms), "ms");
  out.set("tail_ms",
          windowed_quantile(pass.chip_ms, kTailWindow, tail_p / 100.0), "ms");
  out.set("setup_s", median(setup_s), "s");
  out.record["hit_pct"] = format_number(hit_pct);
  out.record["chips"] = std::to_string(chips.size());
  out.record["draws"] = std::to_string(draws);
  out.record["diagnoses"] = std::to_string(n);
  out.record["patterns"] = std::to_string(patterns.size());
  out.record["tail_percentile"] = format_number(tail_p);
  std::printf("diagnose: %zu diagnoses of %zu chips on %zu shared patterns, "
              "%.2f s, tail_ms = p%.0f, hit %.1f%%\n",
              n, chips.size(), patterns.size(), pass.wall_s, tail_p, hit_pct);

  const auto check_oracle = [&] {
    // Chip 0 as first scored, on the cold cache (every column built), and
    // the last chip as last scored, on the warm one.
    const std::size_t last = chips.size() - 1;
    const std::pair<std::size_t, const diagnosis::DiagnosisResult*> checks[] =
        {{0, &pass.cold_first}, {last, &pass.results[last]}};
    for (const auto& [c, result] : checks) {
      const double err = oracle_key_error(W, patterns, chips[c].B, *result);
      if (err > 1e-9) {
        out.fail_check("diagnose: chip " + std::to_string(c) +
                       " scores differ from the reference by " +
                       format_number(err));
      }
    }
  };
  if (!opts.trace) {
    check_oracle();
    return;
  }

  const obs::MetricsSnapshot snap0 = obs::MetricsRegistry::instance().snapshot();
  const Pass traced = diagnose_all(W, patterns, chips, n, spans);
  const obs::MetricsSnapshot snap1 = obs::MetricsRegistry::instance().snapshot();
  check_oracle();
  const auto delta = [&](const char* name) {
    return static_cast<double>(
        obs::MetricsSnapshot::counter_delta(snap0, snap1, name));
  };
  const auto seconds = [&](const char* name) {
    return obs::MetricsSnapshot::delta_ns_to_seconds(snap0, snap1, name);
  };
  const auto totals = spans.totals();
  const auto total = [&totals](const char* name) {
    return SpanRecorder::of(totals, name);
  };
  std::size_t suspects = 0;
  for (const auto& r : traced.results) suspects += r.suspects.size();

  out.set("diagnosis.hit_pct", hit_pct, "%");
  out.set("defect.draws", static_cast<double>(draws), "count");
  out.set("defect.accept_ratio",
          ratio(static_cast<double>(chips.size()), static_cast<double>(draws)),
          "ratio");
  out.set("atpg.calls", static_cast<double>(total("atpg.generate").count),
          "count");
  out.set("atpg.self_s", total("atpg.generate").self_s, "s");
  out.set("eval.calibration_s", W.calibration_s, "s");
  out.set("timing.observe_calls",
          static_cast<double>(total("timing.observe").count), "count");
  out.set("timing.observe_s", total("timing.observe").self_s, "s");
  out.set("timing.mc_samples", delta("mc.samples"), "count");
  out.set("timing.column_build_s", seconds("diag.kernel.build_ns"), "s");
  out.set("diagnosis.calls",
          static_cast<double>(total("diagnosis.diagnose").count), "count");
  out.set("diagnosis.self_s", total("diagnosis.diagnose").self_s, "s");
  out.set("diagnosis.suspects_mean",
          ratio(static_cast<double>(suspects),
                static_cast<double>(traced.results.size())),
          "count");
  out.set("diagnosis.phi_evals", delta("diag.phi_evals"), "count");
  out.set("diagnosis.phi_s", seconds("diag.kernel.phi_ns"), "s");
  out.set("diagnosis.columns_built", delta("dict.columns_built"), "count");
  const double lookups =
      static_cast<double>(traced.cache.hits + traced.cache.misses);
  out.set("diagnosis.cache_lookups", lookups, "count");
  out.set("diagnosis.cache_hit_ratio",
          ratio(static_cast<double>(traced.cache.hits), lookups), "ratio");
  out.set("diagnosis.cache_bytes", static_cast<double>(traced.cache.bytes),
          "bytes");
  // CPU the pass spent in column builds, phi and suspect extraction, over
  // all CPU the process spent during it.
  out.set("diagnosis.covered_share",
          ratio(seconds("diag.kernel.build_ns") + seconds("diag.kernel.phi_ns") +
                    seconds("diag.extract_ns"),
                traced.cpu_s),
          "ratio");
  out.set("runtime.parallel_eff", ratio(traced.cpu_s, traced.wall_s),
          "ratio");
  out.set("runtime.pool_tasks", delta("pool.tasks"), "count");
  // Throughput lost against the untraced pass, as on table1 and serve.
  const double untraced_cps = static_cast<double>(n) / pass.wall_s;
  const double traced_cps = static_cast<double>(n) / traced.wall_s;
  out.set("trace.overhead_pct",
          100.0 * ratio(untraced_cps - traced_cps, untraced_cps), "%");
}

}  // namespace perfbench
