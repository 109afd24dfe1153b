// Tests for the observability subsystem (src/obs/): deterministic metric
// merges across thread counts, histogram bucket boundaries, trace JSON
// well-formedness, zero-cost disabled paths, contract OBS001, log gating,
// the shared codec (FNV-1a, JSON strings, %.17g doubles) and the per-phase
// breakdown recorded by the experiment driver.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "netlist/synth.h"
#include "obs/check.h"
#include "obs/codec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace {

using namespace sddd;

struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_thread_count(0); }
};

struct CheckModeGuard {
  obs::CheckMode prev = obs::check_mode();
  ~CheckModeGuard() { obs::set_check_mode(prev); }
};

struct LogLevelGuard {
  obs::LogLevel prev = obs::log_level();
  ~LogLevelGuard() { obs::set_log_level(prev); }
};

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough to prove the trace and
// metrics writers emit parseable JSON (structure + string escaping), with
// no dependency beyond the standard library.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          pos_ += 4;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Codec: every persisted hash and rendered string goes through these.

TEST(ObsCodec, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a-64 vectors under the standard offset basis.
  EXPECT_EQ(obs::fnv1a64("", obs::kFnv1aOffset), obs::kFnv1aOffset);
  EXPECT_EQ(obs::fnv1a64("a", obs::kFnv1aOffset), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(obs::fnv1a64("foobar", obs::kFnv1aOffset), 0x85944171f73967e8ULL);
  // The persisted seed is the default; pinned, because every journal,
  // ledger and store on disk depends on it.
  EXPECT_EQ(obs::fnv1a64(""), 0x14650fb0739d0383ULL);
  EXPECT_EQ(obs::fnv1a64("sddd"), 0x5c0bde2cb1bbeba4ULL);
  // Streaming: continuing from a prefix's hash equals hashing the whole.
  EXPECT_EQ(obs::fnv1a64("bar", obs::fnv1a64("foo")), obs::fnv1a64("foobar"));
  // A word folds its bytes least significant first.
  const std::string_view le_bytes("\x01\x02\x03\x04\x05\x06\x07\x08", 8);
  EXPECT_EQ(obs::fnv1a64_word(obs::kFnv1aOffset, 0x0807060504030201ULL),
            obs::fnv1a64(le_bytes, obs::kFnv1aOffset));
  std::uint64_t h = obs::kFnv1aOffset;
  for (const char c : std::string_view("foobar")) {
    h = obs::fnv1a_step(h, static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(h, 0x85944171f73967e8ULL);
}

TEST(ObsCodec, JsonStringEscapesEveryControlCharacter) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int c = 0; c < 0x20; ++c) {
    std::string want = "\\u00";
    want += kHex[c >> 4];
    want += kHex[c & 15];
    if (c == '\n') want = "\\n";
    if (c == '\t') want = "\\t";
    if (c == '\r') want = "\\r";
    EXPECT_EQ(obs::json_string(std::string(1, static_cast<char>(c))),
              "\"" + want + "\"")
        << "control character " << c;
  }
  EXPECT_EQ(obs::json_string("a\"b\\c/"), "\"a\\\"b\\\\c/\"");
  // Everything from 0x20 up, DEL and UTF-8 bytes included, passes through.
  EXPECT_EQ(obs::json_string("\x20~\x7f\xc3\xa9"), "\"\x20~\x7f\xc3\xa9\"");
  std::string out = "x:";
  obs::append_json_string(out, "y");
  EXPECT_EQ(out, "x:\"y\"");
}

TEST(ObsCodec, JsonDoubleIsSeventeenSignificantDigits) {
  EXPECT_EQ(obs::json_double(0.1), "0.10000000000000001");
  EXPECT_EQ(obs::json_double(43.0), "43");
  EXPECT_EQ(obs::json_double(1132.7799999999997), "1132.7799999999997");
  EXPECT_EQ(obs::json_double(-0.0), "-0");
  for (const double v : {1.0 / 3.0, 6.02214076e23, -2.5e-300, 4.9e-324}) {
    EXPECT_EQ(std::strtod(obs::json_double(v).c_str(), nullptr), v) << v;
  }
}

// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterMergeDeterministicAcrossThreadCounts) {
  const ThreadCountGuard guard;
  obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "test.merge_determinism");
  constexpr std::size_t kItems = 513;
  constexpr std::uint64_t kPerItem = 3;

  std::vector<std::uint64_t> totals;
  for (const std::size_t threads : {1U, 4U}) {
    runtime::set_thread_count(threads);
    const std::uint64_t before = c.value();
    runtime::parallel_for(kItems, [&](std::size_t) { c.add(kPerItem); });
    totals.push_back(c.value() - before);
  }
  EXPECT_EQ(totals[0], kItems * kPerItem);
  EXPECT_EQ(totals[0], totals[1]);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  obs::Histogram& h = obs::MetricsRegistry::instance().register_histogram(
      "test.hist_bounds", bounds);
  ASSERT_EQ(h.bucket_count(), 4U);  // 3 bounds + overflow

  // Bucket i counts v <= bounds[i] (first match); beyond the last bound
  // lands in the overflow bucket.
  h.record(0.5);  // bucket 0
  h.record(1.0);  // bucket 0 (inclusive upper bound)
  h.record(1.5);  // bucket 1
  h.record(2.0);  // bucket 1
  h.record(3.0);  // bucket 2
  h.record(4.0);  // bucket 2
  h.record(5.0);  // overflow

  EXPECT_EQ(h.count_in_bucket(0), 2U);
  EXPECT_EQ(h.count_in_bucket(1), 2U);
  EXPECT_EQ(h.count_in_bucket(2), 2U);
  EXPECT_EQ(h.count_in_bucket(3), 1U);
  EXPECT_EQ(h.total_count(), 7U);

  h.reset();
  EXPECT_EQ(h.total_count(), 0U);
}

TEST(ObsMetrics, HistogramMergeDeterministicAcrossThreadCounts) {
  const ThreadCountGuard guard;
  const std::vector<double> bounds = {10.0, 100.0};
  obs::Histogram& h = obs::MetricsRegistry::instance().register_histogram(
      "test.hist_merge", bounds);
  for (const std::size_t threads : {1U, 4U}) {
    runtime::set_thread_count(threads);
    h.reset();
    runtime::parallel_for(300, [&](std::size_t i) {
      h.record(static_cast<double>(i));  // 0..10 | 11..100 | 101..299
    });
    EXPECT_EQ(h.count_in_bucket(0), 11U);
    EXPECT_EQ(h.count_in_bucket(1), 90U);
    EXPECT_EQ(h.count_in_bucket(2), 199U);
  }
}

TEST(ObsMetrics, DuplicateRegistrationContract) {
  const CheckModeGuard guard;
  obs::set_check_mode(obs::CheckMode::kThrow);

  obs::Counter& first =
      obs::MetricsRegistry::instance().register_counter("test.dup_name");
  first.add(7);
  // Same name, same kind: OBS001, but the existing counter would be
  // returned in warn mode.
  try {
    obs::MetricsRegistry::instance().register_counter("test.dup_name");
    FAIL() << "duplicate registration must throw in kThrow mode";
  } catch (const obs::ContractViolation& e) {
    EXPECT_EQ(e.rule_id(), "OBS001");
  }
  // Same name, different kind: still OBS001.
  EXPECT_THROW(obs::MetricsRegistry::instance().register_gauge("test.dup_name"),
               obs::ContractViolation);

  // In warn mode the existing metric comes back so execution continues.
  obs::set_check_mode(obs::CheckMode::kWarn);
  obs::Counter& again =
      obs::MetricsRegistry::instance().register_counter("test.dup_name");
  EXPECT_EQ(&again, &first);
  EXPECT_EQ(again.value(), 7U);
}

TEST(ObsMetrics, SnapshotJsonParses) {
  obs::MetricsRegistry::instance()
      .register_counter("test.snapshot_counter")
      .add(41);
  obs::MetricsRegistry::instance()
      .register_gauge("test.snapshot \"gauge\"\n")
      .set(2.5);
  std::ostringstream os;
  obs::MetricsRegistry::instance().write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("test.snapshot_counter"), std::string::npos);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter_or("test.snapshot_counter"), 41U);
  EXPECT_EQ(snap.counter_or("test.never_registered", 9U), 9U);
}

TEST(ObsMetrics, ScopedNsTimerAccumulates) {
  obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("test.timer_ns");
  {
    const obs::ScopedNsTimer timer(c);
    // Any work at all; the steady clock has ns resolution so even an empty
    // scope usually lands > 0, but don't rely on that.
    std::atomic<int> sink{0};
    for (int i = 0; i < 1000; ++i) sink.fetch_add(i, std::memory_order_relaxed);
  }
  const std::uint64_t first = c.value();
  EXPECT_GT(first, 0U);
  { const obs::ScopedNsTimer timer(c); }
  EXPECT_GE(c.value(), first);
}

TEST(ObsTrace, DisabledTracerIsNoOp) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.clear();
  {
    SDDD_SPAN(span, "test.disabled");
    span.arg("k", 1);
  }
  EXPECT_EQ(tracer.event_count(), 0U);
  EXPECT_EQ(tracer.dropped_count(), 0U);
}

TEST(ObsTrace, SpanJsonWellFormed) {
  const ThreadCountGuard tc_guard;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  {
    SDDD_SPAN(outer, "test.outer");
    outer.arg("circuit", std::string_view("s1196\"quoted\""))
        .arg("pattern", 3)
        .arg("weight", 0.25);
    runtime::set_thread_count(4);
    runtime::parallel_for(8, [&](std::size_t i) {
      SDDD_SPAN(inner, "test.inner");
      inner.arg("i", static_cast<std::int64_t>(i));
    });
  }
  tracer.disable();
  if (obs::kTraceCompiledIn) {
    EXPECT_GE(tracer.event_count(), 9U);
  }

  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  if (obs::kTraceCompiledIn) {
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  }
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0U);
}

TEST(ObsTrace, SpanRecordsOnlyWhenEnabled) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  { SDDD_SPAN(span, "test.enabled_once"); }
  tracer.disable();
  const std::size_t with_tracing = tracer.event_count();
  { SDDD_SPAN(span, "test.after_disable"); }
  if (obs::kTraceCompiledIn) {
    EXPECT_EQ(with_tracing, 1U);
  }
  EXPECT_EQ(tracer.event_count(), with_tracing);
  tracer.clear();
}

TEST(ObsLog, LevelParsingAndGating) {
  const LogLevelGuard guard;

  obs::LogLevel level = obs::LogLevel::kError;
  EXPECT_TRUE(obs::parse_log_level("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::parse_log_level("warn", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::parse_log_level("verbose", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);  // untouched on failure

  obs::set_log_level(obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kError));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kWarn));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kInfo));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kDebug));

  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kInfo), "info");
}

// Deliberately NOT in the Obs* families: the runtime smoke filter (TSan
// flavor) excludes it because a full experiment is seconds of work.
TEST(ExperimentPhases, RecordsBreakdown) {
  const ThreadCountGuard guard;
  runtime::set_thread_count(1);

  netlist::SynthSpec spec;
  spec.name = "phases_test";
  spec.n_inputs = 16;
  spec.n_outputs = 10;
  spec.n_gates = 120;
  spec.depth = 10;
  spec.seed = 5;
  const auto nl = netlist::synthesize(spec);

  eval::ExperimentConfig config;
  config.mc_samples = 80;
  config.n_chips = 4;
  config.max_suspects = 120;
  config.pattern_config.paths_per_site = 2;
  config.pattern_config.site_search_tries = 64;
  config.calibration_sites = 8;
  config.seed = 8;

  const auto result = eval::run_diagnosis_experiment(nl, config);
  const eval::PhaseBreakdown& ph = result.phases;

  // Wall splits are real time, so only sanity bounds hold; the work
  // counters are exact and deterministic.
  EXPECT_GE(ph.setup_seconds, 0.0);
  EXPECT_GE(ph.calibration_seconds, 0.0);
  EXPECT_GT(ph.trials_seconds, 0.0);
  EXPECT_LE(ph.trials_seconds, result.wall_seconds + 1e-6);

  EXPECT_GT(ph.mc_samples, 0U);
  EXPECT_GT(ph.atpg_cpu_seconds, 0.0);
  if (result.diagnosable_trials() > 0) {
    EXPECT_GT(ph.dict_columns_built, 0U);
    EXPECT_GT(ph.phi_evals, 0U);
    EXPECT_GT(ph.score_cpu_seconds, 0.0);
    EXPECT_GT(ph.mc_observe_cpu_seconds, 0.0);
  }
}

}  // namespace
