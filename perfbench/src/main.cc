// sddd_perfbench - one run of one SDDD benchmark workload.
//
//   sddd_perfbench --workload table1|serve|diagnose --seed N --seconds S
//                  --trace 0|1 --threads N [--spans-out FILE] [--work-dir DIR]
//                  [--git-sha SHA]
//
// Prints one record line ({"record": {...}}: host facts and workload
// facts) and then, as the last stdout line, the result object whose
// "metrics" hold every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1).  Exit code 1 when an output check failed, 2 on bad
// arguments.  perfbench/run.py builds this binary and calls it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/log.h"
#include "runtime/parallel_for.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every untraced run, on every workload (BENCHMARK.json
// "end_to_end" lists the same names).
constexpr MetricDef kEndToEnd[] = {
    {"chips_per_s", "1/s"}, {"p50_ms", "ms"},      {"tail_ms", "ms"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

// Reported by every traced run; a layer a workload does not exercise
// reads 0 there (BENCHMARK.json "per_layer" lists the same names).
constexpr MetricDef kPerLayer[] = {
    {"defect.draws", "count"},
    {"defect.accept_ratio", "ratio"},
    {"defect.exhausted_trials", "count"},
    {"defect.reject_empty", "count"},
    {"defect.reject_lo", "count"},
    {"defect.reject_hi", "count"},
    {"defect.reject_nofail", "count"},
    {"defect.reject_nocontrib", "count"},
    {"atpg.calls", "count"},
    {"atpg.self_s", "s"},
    {"atpg.wasted_s", "s"},
    {"atpg.useful_ratio", "ratio"},
    {"atpg.useful_time_ratio", "ratio"},
    {"atpg.patterns_per_call", "count"},
    {"atpg.gate_s", "s"},
    {"atpg.trial_share", "ratio"},
    {"eval.calibration_s", "s"},
    {"eval.trial_p50_ms", "ms"},
    {"eval.trial_max_ms", "ms"},
    {"runtime.parallel_eff", "ratio"},
    {"runtime.pool_tasks", "count"},
    {"timing.observe_calls", "count"},
    {"timing.observe_s", "s"},
    {"timing.mc_samples", "count"},
    {"timing.column_build_s", "s"},
    {"diagnosis.hit_pct", "%"},
    {"diagnosis.calls", "count"},
    {"diagnosis.self_s", "s"},
    {"diagnosis.suspects_mean", "count"},
    {"diagnosis.phi_evals", "count"},
    {"diagnosis.phi_s", "s"},
    {"diagnosis.columns_built", "count"},
    {"diagnosis.cache_hit_ratio", "ratio"},
    {"diagnosis.cache_lookups", "count"},
    {"diagnosis.cache_bytes", "bytes"},
    {"diagnosis.logic_baseline_s", "s"},
    {"diagnosis.covered_share", "ratio"},
    {"store.build_s", "s"},
    {"store.bytes", "bytes"},
    {"store.open_s", "s"},
    {"store.sample_s", "s"},
    {"store.section_bytes.m", "bytes"},
    {"store.section_bytes.e", "bytes"},
    {"store.section_bytes.s", "bytes"},
    {"store.section_bytes.cones", "bytes"},
    {"store.section_bytes.sizes", "bytes"},
    {"store.query_ms", "ms"},
    {"store.render_ms", "ms"},
    {"store.rtt_ms", "ms"},
    {"store.parse_us", "us"},
    {"store.queue_us", "us"},
    {"store.score_us", "us"},
    {"store.render_us", "us"},
    {"store.write_us", "us"},
    {"store.sheds", "count"},
    {"store.reconnects", "count"},
    {"store.gen_late_ms", "ms"},
    {"run.fail_share", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.stale", "flag"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sddd_perfbench --workload table1|serve|diagnose "
               "--seed N --seconds S --trace 0|1 --threads N\n"
               "                      [--spans-out FILE] [--work-dir DIR] "
               "[--git-sha SHA]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = val == "1";
    } else if (arg == "--threads") {
      o.threads = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--spans-out") {
      o.spans_out = val;
    } else if (arg == "--work-dir") {
      o.work_dir = val;
    } else if (arg == "--git-sha") {
      o.git_sha = val;
    } else {
      usage();
    }
  }
  if (o.workload.empty() || o.seconds <= 0.0 || o.threads == 0) usage();
  return o;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  sddd::obs::set_log_level(sddd::obs::LogLevel::kWarn);
  sddd::runtime::set_thread_count(opts.threads);

  const double load_start = loadavg_1min();
  const double wall0 = now_s();
  SpanRecorder spans(opts.trace);
  Result result;
  try {
    if (opts.workload == "table1") {
      run_table1(opts, spans, result);
    } else if (opts.workload == "serve") {
      run_serve(opts, spans, result);
    } else if (opts.workload == "diagnose") {
      run_diagnose(opts, spans, result);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  const double peak_mb = peak_rss_mb();
  const double nproc = static_cast<double>(opts.threads);
  if (!opts.trace) result.set("peak_rss_mb", peak_mb, "MB");

  // Exactly the metric set of this mode: per-layer gaps read 0, a missing
  // end-to-end metric is a benchmark bug.
  Result line;
  line.correct = result.correct;
  line.attempted = result.attempted;
  line.failed = result.failed;
  if (opts.trace) {
    result.set("run.fail_share",
               result.attempted == 0
                   ? 0.0
                   : static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");
    result.set("trace.spans", static_cast<double>(spans.spans().size()),
               "count");
    for (const MetricDef& m : kPerLayer) {
      line.set(m.name, result.get(m.name), m.unit);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      if (!result.has(m.name)) {
        line.fail_check(std::string("metric not measured: ") + m.name);
      }
      line.set(m.name, result.get(m.name), m.unit);
    }
  }
  if (line.attempted == 0) line.fail_check("no operation attempted");

  if (!opts.spans_out.empty() &&
      !spans.write_jsonl(opts.spans_out, opts.workload)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opts.spans_out.c_str());
  }

  const double load_end = loadavg_1min();
  std::string rec = "{\"record\": {\"workload\": " + quoted(opts.workload) +
                    ", \"seed\": " + std::to_string(opts.seed) +
                    ", \"seconds\": " + format_number(opts.seconds) +
                    ", \"trace\": " + (opts.trace ? "1" : "0") +
                    ", \"nproc\": " + std::to_string(opts.threads) +
                    ", \"loadavg_start\": " + format_number(load_start) +
                    ", \"loadavg_end\": " + format_number(load_end) +
                    // An oversubscribed host at start: the record is not a
                    // baseline.
                    ", \"loaded_host\": " +
                    (load_start > nproc ? "true" : "false") +
                    ", \"cpu_s\": " + format_number(process_cpu_s()) +
                    ", \"wall_s\": " + format_number(now_s() - wall0) +
                    ", \"peak_rss_mb\": " + format_number(peak_mb) +
                    ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                    ", \"git_sha\": " + quoted(opts.git_sha);
  for (const auto& [key, value] : result.record) {
    rec += ", " + quoted(key) + ": " + value;
  }
  rec += "}}";
  std::printf("%s\n%s\n", rec.c_str(), line.to_json().c_str());
  return line.correct ? 0 : 1;
}
