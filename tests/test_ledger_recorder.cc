// Tests for the run ledger (checksummed JSONL records, torn-tail recovery,
// run-to-run diffs) and the flight recorder (ring overflow accounting,
// thread-count-independent event merge, quarantine postmortems that
// cross-link the experiment run_id), plus the histogram quantile
// estimators the postmortem metrics snapshot relies on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "eval/checkpoint.h"
#include "eval/experiment.h"
#include "introspect/manifest.h"
#include "netlist/synth.h"
#include "obs/faults.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "runtime/parallel_for.h"

namespace sddd {
namespace {

/// Clears the process-wide fault spec on scope exit so a failing test
/// cannot leak injected faults into the rest of the suite.
struct FaultSpecGuard {
  ~FaultSpecGuard() { obs::set_fault_spec(""); }
};

/// Per-process scratch path: this file is built into both the main test
/// binary and the ledger/recorder smoke binary, which ctest may run at once.
std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) /
         (std::to_string(::getpid()) + "_" + name);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

obs::LedgerRecord sample_record(const std::string& run_id) {
  obs::LedgerRecord rec;
  rec.run_id = run_id;
  rec.tool = "diagnose";
  rec.circuit = "s1196";
  rec.git_sha = "abc1234";
  rec.seed = 42;
  rec.threads = 4;
  rec.mc_samples = 200;
  rec.n_chips = 20;
  rec.wall_seconds = 12.625;
  rec.phases["setup_s"] = 1.5;
  rec.phases["trials_s"] = 10.0;
  rec.counters["diag.runs"] = 20;
  rec.counters["sig.cache_miss"] = 7;
  rec.peak_rss_kb = 65536;
  rec.manifest_fnv = "00deadbeef001122";
  rec.result_fnv = "1122334455667788";
  rec.result_path = "out/result.json";
  rec.unix_ms = 1754600000000ull;
  return rec;
}

// --- Ledger encode/decode ---

TEST(Ledger, RecordRoundTripsThroughEncode) {
  const obs::LedgerRecord rec = sample_record("0123456789abcdef");
  const std::string line = obs::encode_ledger_record(rec);
  EXPECT_EQ(line.find("{\"crc\":\""), 0u);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  obs::LedgerRecord back;
  ASSERT_TRUE(obs::decode_ledger_record(line, &back));
  EXPECT_EQ(back.version, rec.version);
  EXPECT_EQ(back.run_id, rec.run_id);
  EXPECT_EQ(back.tool, rec.tool);
  EXPECT_EQ(back.circuit, rec.circuit);
  EXPECT_EQ(back.git_sha, rec.git_sha);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.threads, rec.threads);
  EXPECT_EQ(back.mc_samples, rec.mc_samples);
  EXPECT_EQ(back.n_chips, rec.n_chips);
  EXPECT_DOUBLE_EQ(back.wall_seconds, rec.wall_seconds);
  EXPECT_EQ(back.phases, rec.phases);
  EXPECT_EQ(back.counters, rec.counters);
  EXPECT_EQ(back.peak_rss_kb, rec.peak_rss_kb);
  EXPECT_EQ(back.manifest_fnv, rec.manifest_fnv);
  EXPECT_EQ(back.result_fnv, rec.result_fnv);
  EXPECT_EQ(back.result_path, rec.result_path);
  EXPECT_EQ(back.unix_ms, rec.unix_ms);
}

TEST(Ledger, CorruptionFailsTheChecksum) {
  const std::string line =
      obs::encode_ledger_record(sample_record("0123456789abcdef"));
  obs::LedgerRecord out;
  // Flip one payload byte: crc mismatch.
  std::string corrupt = line;
  corrupt[line.size() / 2] = corrupt[line.size() / 2] == 'x' ? 'y' : 'x';
  EXPECT_FALSE(obs::decode_ledger_record(corrupt, &out));
  // Damage the crc itself.
  std::string bad_crc = line;
  bad_crc[9] = bad_crc[9] == '0' ? '1' : '0';
  EXPECT_FALSE(obs::decode_ledger_record(bad_crc, &out));
  // Structurally hopeless inputs.
  EXPECT_FALSE(obs::decode_ledger_record("", &out));
  EXPECT_FALSE(obs::decode_ledger_record("{\"crc\":\"tooshort\"}", &out));
  EXPECT_FALSE(obs::decode_ledger_record("not json at all", &out));
}

TEST(Ledger, TornTailIsSkippedNotFatal) {
  const auto path = temp_path("ledger_torn.jsonl");
  std::filesystem::remove(path);
  ASSERT_TRUE(obs::append_ledger_record(path.string(),
                                        sample_record("aaaaaaaaaaaaaaaa")));
  ASSERT_TRUE(obs::append_ledger_record(path.string(),
                                        sample_record("bbbbbbbbbbbbbbbb")));
  ASSERT_TRUE(obs::append_ledger_record(path.string(),
                                        sample_record("cccccccccccccccc")));

  // Cut the final line in half, as a crash mid-append would.
  const std::string contents = slurp(path);
  const std::size_t second_nl = contents.find('\n', contents.find('\n') + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::size_t keep = second_nl + 1 + (contents.size() - second_nl) / 2;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents.substr(0, keep);
  }

  const obs::LedgerFile ledger = obs::load_ledger(path.string());
  ASSERT_EQ(ledger.records.size(), 2u);
  EXPECT_EQ(ledger.records[0].run_id, "aaaaaaaaaaaaaaaa");
  EXPECT_EQ(ledger.records[1].run_id, "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(ledger.skipped_lines, 1u);

  const auto tail = obs::ledger_tail(path.string());
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->run_id, "bbbbbbbbbbbbbbbb");
  std::filesystem::remove(path);
}

TEST(Ledger, MissingFileIsAnEmptyLedger) {
  const auto path = temp_path("ledger_never_written.jsonl");
  std::filesystem::remove(path);
  EXPECT_TRUE(obs::load_ledger(path.string()).records.empty());
  EXPECT_FALSE(obs::ledger_tail(path.string()).has_value());
}

TEST(Ledger, InvocationRunIdsAreDistinctAndWellFormed) {
  const std::string a = obs::new_invocation_run_id("bench_table1", "abc");
  const std::string b = obs::new_invocation_run_id("bench_table1", "abc");
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a, b);  // same config, distinct invocations
  for (const char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
  }
}

// --- Run-to-run diff ---

TEST(LedgerDiff, PhasesCountersAndRankStability) {
  obs::LedgerRecord a = sample_record("0123456789abcdef");
  obs::LedgerRecord b = sample_record("0123456789abcdef");
  b.wall_seconds = 25.25;
  b.phases["trials_s"] = 22.0;
  b.phases["score_s"] = 1.0;  // only in B: union must still show it
  b.counters["sig.cache_miss"] = 14;

  const obs::LedgerDiff d = obs::diff_ledger_records(a, b);
  EXPECT_EQ(d.rank_stability, "identical");
  bool saw_score = false;
  for (const auto& row : d.phases) {
    if (row.name == "score_s") {
      saw_score = true;
      EXPECT_DOUBLE_EQ(row.a, 0.0);
      EXPECT_DOUBLE_EQ(row.b, 1.0);
    }
  }
  EXPECT_TRUE(saw_score);

  const std::string text = obs::ledger_diff_to_text(d);
  EXPECT_NE(text.find("trials_s"), std::string::npos) << text;
  EXPECT_NE(text.find("sig.cache_miss"), std::string::npos) << text;
  EXPECT_NE(text.find("identical"), std::string::npos) << text;

  const std::string json = obs::ledger_diff_to_json(d);
  EXPECT_NE(json.find("\"rank_stability\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"phases\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;

  // Same run_id, different result bytes: the determinism contract broke.
  b.result_fnv = "ffffffffffffffff";
  EXPECT_EQ(obs::diff_ledger_records(a, b).rank_stability, "DIFFERS");
  // Different experiments are not comparable for rank stability.
  b.run_id = "fedcba9876543210";
  EXPECT_EQ(obs::diff_ledger_records(a, b).rank_stability,
            "n/a (different run_ids)");
  // No result hash recorded: nothing to compare.
  b = sample_record("0123456789abcdef");
  b.result_fnv.clear();
  EXPECT_EQ(obs::diff_ledger_records(a, b).rank_stability, "unknown");
}

// --- Flight recorder ---

TEST(Recorder, RingOverflowKeepsLastNAndCountsDrops) {
  auto& rec = obs::Recorder::instance();
  rec.clear();
  const std::uint64_t n = obs::Recorder::kRingCapacity + 100;
  for (std::uint64_t i = 0; i < n; ++i) {
    rec.record(obs::EventKind::kTrialBegin, "ovf", i);
  }
  std::uint64_t kept = 0;
  std::uint64_t min_key = n;
  for (const auto& ev : rec.merged_events()) {
    if (std::string(ev.detail) == "ovf") {
      ++kept;
      min_key = std::min(min_key, ev.key);
    }
  }
  EXPECT_EQ(kept, obs::Recorder::kRingCapacity);
  EXPECT_EQ(min_key, n - obs::Recorder::kRingCapacity);  // oldest went first
  EXPECT_GE(rec.dropped_count(), 100u);
  EXPECT_GE(rec.recorded_count(), n);
  rec.clear();
}

TEST(Recorder, DetailLongerThanSlotIsTruncatedNotCorrupted) {
  auto& rec = obs::Recorder::instance();
  rec.clear();
  rec.record(obs::EventKind::kTrialError,
             "a-very-long-error-taxonomy-code-name", 3);
  const auto events = rec.merged_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].detail), "a-very-long-er");  // 14 + NUL
  rec.clear();
}

TEST(Recorder, MergedEventsAreIdenticalAtOneAndFourThreads) {
  auto& rec = obs::Recorder::instance();
  const std::size_t restore_width = runtime::thread_count();

  // The same schedule-independent event set recorded under both widths
  // must merge to byte-identical JSON: events are keyed by work item, not
  // by thread or time.
  const auto record_all = [&rec]() {
    runtime::parallel_for(64, [&rec](std::size_t i) {
      rec.record(obs::EventKind::kTrialBegin, "det", i);
      rec.record(obs::EventKind::kTrialEnd, "det", i, i % 3);
    });
  };
  runtime::set_thread_count(1);
  rec.clear();
  record_all();
  const std::string serial = rec.merged_events_json();

  runtime::set_thread_count(4);
  rec.clear();
  record_all();
  const std::string parallel = rec.merged_events_json();

  runtime::set_thread_count(restore_width);
  rec.clear();
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("trial.begin"), std::string::npos);
}

TEST(Recorder, PostmortemBundleCarriesRunIdAndMetrics) {
  auto& rec = obs::Recorder::instance();
  rec.clear();
  rec.set_run_id("0123456789abcdef");
  rec.record(obs::EventKind::kDeadline, "", 7);
  const std::string bundle = rec.postmortem_json("unit_test");
  EXPECT_NE(bundle.find("\"postmortem_version\""), std::string::npos);
  EXPECT_NE(bundle.find("\"run_id\": \"0123456789abcdef\""),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(bundle.find("\"deadline\""), std::string::npos);
  EXPECT_NE(bundle.find("\"metrics\""), std::string::npos);
  rec.set_run_id("");
  rec.clear();
}

TEST(Recorder, DumpPostmortemWithoutPathIsQuietNoop) {
  EXPECT_EQ(obs::postmortem_out_path(), "");
  EXPECT_FALSE(obs::dump_postmortem("nowhere"));
}

// --- Quarantine postmortem end to end ---

TEST(Recorder, QuarantinedTrialDumpsPostmortemCrossLinkedToManifest) {
  FaultSpecGuard guard;
  netlist::SynthSpec spec;
  spec.name = "ledgerq";
  spec.n_inputs = 10;
  spec.n_outputs = 8;
  spec.n_gates = 60;
  spec.depth = 8;
  spec.seed = 11;
  const auto nl = netlist::synthesize(spec);
  eval::ExperimentConfig config;
  config.n_chips = 4;
  config.mc_samples = 40;
  config.seed = 5;
  config.calibration_sites = 6;
  config.max_injection_retries = 40;

  const auto path = temp_path("quarantine_postmortem.json");
  std::filesystem::remove(path);
  obs::Recorder::instance().clear();
  obs::set_postmortem_out_path(path.string());
  obs::set_fault_spec("exp.trial@1");
  const auto result = eval::run_diagnosis_experiment(nl, config);
  obs::set_fault_spec("");
  obs::set_postmortem_out_path("");

  EXPECT_EQ(result.quarantined_trials(), 1u);
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string bundle = slurp(path);
  // The bundle names the reason and the quarantined trial's error event.
  EXPECT_NE(bundle.find("\"reason\": \"trial_quarantined\""),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("trial.error"), std::string::npos);
  // ... and its run_id is the experiment fingerprint: the same 16-hex id
  // stamped into the run's manifest / result JSON / checkpoint journal.
  const std::string expected_run_id = introspect::to_hex64(
      eval::experiment_fingerprint(nl.name(), config));
  EXPECT_NE(bundle.find("\"run_id\": \"" + expected_run_id + "\""),
            std::string::npos)
      << bundle;
  obs::Recorder::instance().clear();
  std::filesystem::remove(path);
}

// --- Histogram quantiles (the postmortem metrics snapshot's p50/p95/p99) ---

TEST(HistogramQuantiles, InterpolatesInsideBuckets) {
  obs::MetricsSnapshot::HistogramData h;
  h.bounds = {10.0, 100.0};
  h.counts = {10, 0, 0};  // all mass in [0, 10]
  EXPECT_EQ(h.total(), 10u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);

  h.counts = {5, 5, 0};  // half in [0,10], half in (10,100]
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
  EXPECT_GT(h.quantile(0.75), 10.0);
  EXPECT_LE(h.quantile(0.75), 100.0);
}

TEST(HistogramQuantiles, OverflowClampsToLastBoundAndEmptyIsZero) {
  obs::MetricsSnapshot::HistogramData h;
  h.bounds = {10.0, 100.0};
  h.counts = {0, 0, 0};
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  h.counts = {0, 0, 8};  // everything escaped the bounds
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
}

TEST(HistogramQuantiles, SnapshotJsonCarriesTheQuantiles) {
  auto& registry = obs::MetricsRegistry::instance();
  const double bounds[] = {1.0, 10.0, 100.0};
  auto& hist = registry.register_histogram("test.ledger_quantiles", bounds);
  hist.record(0.5);
  hist.record(5.0);
  hist.record(50.0);
  std::ostringstream os;
  registry.snapshot().write_json(os);
  const std::string json = os.str();
  const std::size_t at = json.find("test.ledger_quantiles");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"total\"", at), std::string::npos);
  EXPECT_NE(json.find("\"p50\"", at), std::string::npos);
  EXPECT_NE(json.find("\"p95\"", at), std::string::npos);
  EXPECT_NE(json.find("\"p99\"", at), std::string::npos);
}

}  // namespace
}  // namespace sddd
