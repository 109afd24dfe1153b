// Tests for the resilience layer: the sddd::Error taxonomy, the
// SDDD_FAULTS injection harness, atomic artifact writes, cancellation and
// deadlines, the checkpoint journal (round trip, corruption, truncated
// tails), trial quarantine inside run_diagnosis_experiment, and the
// hardened parsers (bench, verilog).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "eval/checkpoint.h"
#include "eval/experiment.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "netlist/verilog_io.h"
#include "obs/atomic_file.h"
#include "obs/error.h"
#include "obs/faults.h"
#include "runtime/cancel.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace sddd {
namespace {

/// Clears the process-wide fault spec on scope exit so a failing test
/// cannot leak injected faults into the rest of the suite.
struct FaultSpecGuard {
  ~FaultSpecGuard() { obs::set_fault_spec(""); }
};

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) / name;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

netlist::Netlist small_netlist() {
  netlist::SynthSpec spec;
  spec.name = "resil";
  spec.n_inputs = 10;
  spec.n_outputs = 8;
  spec.n_gates = 60;
  spec.depth = 8;
  spec.seed = 11;
  return netlist::synthesize(spec);
}

eval::ExperimentConfig small_config() {
  eval::ExperimentConfig config;
  config.n_chips = 4;
  config.mc_samples = 40;
  config.seed = 5;
  config.calibration_sites = 6;
  config.max_injection_retries = 40;
  return config;
}

void expect_records_equal(const eval::TrialRecord& a,
                          const eval::TrialRecord& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.failed_test, b.failed_test);
  EXPECT_EQ(a.injection_attempts, b.injection_attempts);
  EXPECT_EQ(a.n_patterns, b.n_patterns);
  EXPECT_EQ(a.n_failing_cells, b.n_failing_cells);
  EXPECT_EQ(a.n_suspects, b.n_suspects);
  EXPECT_EQ(a.true_arc_in_suspects, b.true_arc_in_suspects);
  EXPECT_EQ(a.logic_baseline_rank, b.logic_baseline_rank);
  EXPECT_EQ(a.chip.sample_index, b.chip.sample_index);
  EXPECT_EQ(a.chip.defect_arc, b.chip.defect_arc);
  // Bitwise, not approximate: resume promises bit-identical results.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.chip.defect_size),
            std::bit_cast<std::uint64_t>(b.chip.defect_size));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.chip.size_mean),
            std::bit_cast<std::uint64_t>(b.chip.size_mean));
  ASSERT_EQ(a.rank_of_true.size(), b.rank_of_true.size());
  for (std::size_t i = 0; i < a.rank_of_true.size(); ++i) {
    EXPECT_EQ(a.rank_of_true[i], b.rank_of_true[i]);
  }
  ASSERT_EQ(a.extra_defects.size(), b.extra_defects.size());
  for (std::size_t i = 0; i < a.extra_defects.size(); ++i) {
    EXPECT_EQ(a.extra_defects[i].first, b.extra_defects[i].first);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.extra_defects[i].second),
              std::bit_cast<std::uint64_t>(b.extra_defects[i].second));
  }
}

// --- Error taxonomy ---

TEST(ErrorTaxonomy, CodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kParse, ErrorCode::kModel, ErrorCode::kNumeric,
        ErrorCode::kIo, ErrorCode::kCancelled, ErrorCode::kDeadline,
        ErrorCode::kFault, ErrorCode::kInternal}) {
    ErrorCode parsed = ErrorCode::kInternal;
    ASSERT_TRUE(parse_error_code(error_code_name(code), &parsed));
    EXPECT_EQ(parsed, code);
  }
  ErrorCode out;
  EXPECT_FALSE(parse_error_code("frobnication", &out));
  EXPECT_FALSE(parse_error_code("", &out));
}

TEST(ErrorTaxonomy, WhatCarriesCodePrefix) {
  const Error e(ErrorCode::kIo, "disk full");
  EXPECT_EQ(e.code(), ErrorCode::kIo);
  EXPECT_STREQ(e.what(), "[io] disk full");
  // Pre-taxonomy call sites catch std::runtime_error; that must keep
  // working.
  try {
    throw IoError("x");
  } catch (const std::runtime_error& caught) {
    EXPECT_NE(std::string(caught.what()).find("[io]"), std::string::npos);
  }
}

TEST(ErrorTaxonomy, ParseErrorCarriesLocation) {
  const ParseError e("mydesign.bench", 7, "unknown gate type: FROB");
  EXPECT_EQ(e.code(), ErrorCode::kParse);
  EXPECT_EQ(e.source(), "mydesign.bench");
  EXPECT_EQ(e.line(), 7u);
  const std::string what = e.what();
  EXPECT_NE(what.find("mydesign.bench line 7:"), std::string::npos) << what;
  // line 0 = whole-input diagnostic: no line text.
  const ParseError whole("a.v", 0, "combinational cycle");
  EXPECT_EQ(std::string(whole.what()), "[parse] a.v: combinational cycle");
}

// --- Fault-injection harness ---

TEST(FaultSpec, SelectorGrammar) {
  FaultSpecGuard guard;
  obs::set_fault_spec("every@*;mod@%3;below@<2;list@1,4");
  EXPECT_TRUE(obs::faults_enabled());
  EXPECT_TRUE(obs::fault_at("every", 0));
  EXPECT_TRUE(obs::fault_at("every", 999));
  EXPECT_TRUE(obs::fault_at("mod", 0));
  EXPECT_FALSE(obs::fault_at("mod", 1));
  EXPECT_TRUE(obs::fault_at("mod", 6));
  EXPECT_TRUE(obs::fault_at("below", 1));
  EXPECT_FALSE(obs::fault_at("below", 2));
  EXPECT_TRUE(obs::fault_at("list", 4));
  EXPECT_FALSE(obs::fault_at("list", 2));
  EXPECT_FALSE(obs::fault_at("unknown-site", 0));
  obs::set_fault_spec("");
  EXPECT_FALSE(obs::faults_enabled());
  EXPECT_FALSE(obs::fault_at("every", 0));
}

TEST(FaultSpec, MalformedSpecThrowsParseError) {
  FaultSpecGuard guard;
  for (const char* bad : {"nosite", "a@", "a@x7", "a@1,,2", "@*"}) {
    try {
      obs::set_fault_spec(bad);
      FAIL() << "accepted malformed spec: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << bad;
    }
  }
}

TEST(FaultSpec, FaultPointThrowsTypedError) {
  FaultSpecGuard guard;
  obs::set_fault_spec("seam@2");
  obs::fault_point("seam", 1);  // not selected: no-op
  try {
    obs::fault_point("seam", 2);
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kFault);
    EXPECT_NE(std::string(e.what()).find("seam[2]"), std::string::npos);
  }
}

// --- Atomic artifact writes ---

TEST(AtomicFile, WritesAndReplaces) {
  const auto path = temp_path("atomic_basic.txt");
  ASSERT_TRUE(obs::atomic_write_file(path.string(), "first"));
  EXPECT_EQ(slurp(path), "first");
  ASSERT_TRUE(obs::atomic_write_file(path.string(), "second, longer"));
  EXPECT_EQ(slurp(path), "second, longer");
  // No .tmp litter left behind.
  for (const auto& entry :
       std::filesystem::directory_iterator(path.parent_path())) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
  std::filesystem::remove(path);
}

TEST(AtomicFile, OpenFaultLeavesOldContentIntact) {
  FaultSpecGuard guard;
  const auto path = temp_path("atomic_openfault.txt");
  ASSERT_TRUE(obs::atomic_write_file(path.string(), "precious"));
  obs::set_fault_spec("io.open@*");
  EXPECT_FALSE(obs::atomic_write_file(path.string(), "clobber"));
  EXPECT_THROW(obs::atomic_write_file_or_throw(path.string(), "clobber"),
               IoError);
  obs::set_fault_spec("");
  EXPECT_EQ(slurp(path), "precious");
  std::filesystem::remove(path);
}

TEST(AtomicFile, ShortWriteFaultLeavesOldContentIntact) {
  FaultSpecGuard guard;
  const auto path = temp_path("atomic_shortwrite.txt");
  ASSERT_TRUE(obs::atomic_write_file(path.string(), "precious"));
  obs::set_fault_spec("io.short_write@*");
  EXPECT_FALSE(obs::atomic_write_file(path.string(), "clobbered payload"));
  obs::set_fault_spec("");
  EXPECT_EQ(slurp(path), "precious");
  std::filesystem::remove(path);
}

// --- Checkpoint journal ---

eval::TrialRecord sample_record() {
  eval::TrialRecord r;
  r.status = eval::TrialStatus::kDiagnosed;
  r.failed_test = true;
  r.injection_attempts = 3;
  r.n_patterns = 9;
  r.n_failing_cells = 4;
  r.n_suspects = 117;
  r.true_arc_in_suspects = true;
  r.logic_baseline_rank = 12;
  r.chip.sample_index = 31;
  r.chip.defect_arc = 204;
  r.chip.defect_size = 0.1;  // not exactly representable: bit-exactness test
  r.chip.size_mean = 55.25;
  r.rank_of_true = {0, -1, 3, 7};
  r.extra_defects = {{11, 1.5}, {90, -0.0}};
  return r;
}

TEST(Checkpoint, RecordRoundTripIsExact) {
  const eval::TrialRecord r = sample_record();
  const std::string line = eval::encode_checkpoint_record(42, r);
  eval::CheckpointRecord decoded;
  ASSERT_TRUE(eval::decode_checkpoint_record(line, &decoded));
  EXPECT_EQ(decoded.trial, 42u);
  EXPECT_TRUE(decoded.record.from_checkpoint);
  expect_records_equal(decoded.record, r);
}

TEST(Checkpoint, QuarantinedRecordKeepsErrorAndMessage) {
  eval::TrialRecord r;
  r.status = eval::TrialStatus::kQuarantined;
  r.error_code = ErrorCode::kNumeric;
  r.error_message = "non-finite delay sample\nwith a second line \\ slash";
  r.rank_of_true = {-1, -1};
  const std::string line = eval::encode_checkpoint_record(0, r);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record = one line
  eval::CheckpointRecord decoded;
  ASSERT_TRUE(eval::decode_checkpoint_record(line, &decoded));
  EXPECT_EQ(decoded.record.status, eval::TrialStatus::kQuarantined);
  EXPECT_EQ(decoded.record.error_code, ErrorCode::kNumeric);
  EXPECT_EQ(decoded.record.error_message, r.error_message);
}

eval::TrialRecord quarantined_with_marker_in_message() {
  eval::TrialRecord r;
  r.status = eval::TrialStatus::kQuarantined;
  r.error_code = ErrorCode::kNumeric;
  // " m=" is also the separator in front of the message field.
  r.error_message = "NaN in row m=3 of the dictionary";
  r.rank_of_true = {-1, -1};
  return r;
}

TEST(Checkpoint, MessageContainingFieldMarkerRoundTrips) {
  const eval::TrialRecord r = quarantined_with_marker_in_message();
  const std::string line = eval::encode_checkpoint_record(2, r);
  eval::CheckpointRecord decoded;
  ASSERT_TRUE(eval::decode_checkpoint_record(line, &decoded)) << line;
  EXPECT_EQ(decoded.trial, 2u);
  expect_records_equal(decoded.record, r);
  EXPECT_EQ(decoded.record.error_message, r.error_message);
}

TEST(Checkpoint, LoadKeepsRecordsAfterMessageContainingFieldMarker) {
  const auto path = temp_path("journal_marker.ckpt");
  std::filesystem::remove(path);
  const std::uint64_t fp = 0x5eedULL;
  {
    eval::CheckpointWriter writer(path.string(), fp, 4, 0, true);
    writer.append(0, quarantined_with_marker_in_message());
    writer.append(1, sample_record());
  }
  const eval::CheckpointLoad load = eval::load_checkpoint(path.string(), fp, 4);
  ASSERT_TRUE(load.header_ok);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].trial, 0u);
  EXPECT_EQ(load.records[0].record.error_message,
            "NaN in row m=3 of the dictionary");
  EXPECT_EQ(load.records[1].trial, 1u);
  expect_records_equal(load.records[1].record, sample_record());
  EXPECT_EQ(load.valid_bytes, std::filesystem::file_size(path));
  std::filesystem::remove(path);
}

TEST(Checkpoint, CorruptRecordIsRejected) {
  std::string line = eval::encode_checkpoint_record(7, sample_record());
  eval::CheckpointRecord decoded;
  ASSERT_TRUE(eval::decode_checkpoint_record(line, &decoded));
  std::string flipped = line;
  flipped[line.size() / 2] = flipped[line.size() / 2] == '0' ? '1' : '0';
  EXPECT_FALSE(eval::decode_checkpoint_record(flipped, &decoded));
  EXPECT_FALSE(eval::decode_checkpoint_record("T deadbeef junk", &decoded));
  EXPECT_FALSE(eval::decode_checkpoint_record("", &decoded));
}

TEST(Checkpoint, LoadAcceptsLongestValidPrefixAndWriterTruncatesTail) {
  const auto path = temp_path("journal_tail.ckpt");
  std::filesystem::remove(path);
  const std::uint64_t fp = 0x1234abcdULL;
  {
    eval::CheckpointWriter writer(path.string(), fp, 8, 0, true);
    writer.append(0, sample_record());
    writer.append(3, sample_record());
  }
  // Simulate a crash mid-append: a record line with no trailing newline.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "T 00112233445566";
  }
  const eval::CheckpointLoad load = eval::load_checkpoint(path.string(), fp, 8);
  ASSERT_TRUE(load.header_ok);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].trial, 0u);
  EXPECT_EQ(load.records[1].trial, 3u);
  // Reopening at valid_bytes drops the partial tail, then appends cleanly.
  {
    eval::CheckpointWriter writer(path.string(), fp, 8, load.valid_bytes,
                                  false);
    writer.append(5, sample_record());
  }
  const eval::CheckpointLoad reloaded =
      eval::load_checkpoint(path.string(), fp, 8);
  ASSERT_EQ(reloaded.records.size(), 3u);
  EXPECT_EQ(reloaded.records[2].trial, 5u);
  std::filesystem::remove(path);
}

TEST(Checkpoint, FingerprintMismatchRefusesToResume) {
  const auto path = temp_path("journal_fp.ckpt");
  std::filesystem::remove(path);
  {
    eval::CheckpointWriter writer(path.string(), 1111, 4, 0, true);
    writer.append(0, sample_record());
  }
  EXPECT_THROW((void)eval::load_checkpoint(path.string(), 2222, 4), IoError);
  EXPECT_THROW((void)eval::load_checkpoint(path.string(), 1111, 5), IoError);
  // Missing file is not an error - it just means "start fresh".
  std::filesystem::remove(path);
  const auto load = eval::load_checkpoint(path.string(), 2222, 4);
  EXPECT_FALSE(load.header_ok);
  EXPECT_TRUE(load.records.empty());
}

TEST(Checkpoint, FingerprintTracksExperimentIdentity) {
  const eval::ExperimentConfig base = small_config();
  eval::ExperimentConfig other = base;
  EXPECT_EQ(eval::experiment_fingerprint("c", base),
            eval::experiment_fingerprint("c", other));
  other.seed += 1;
  EXPECT_NE(eval::experiment_fingerprint("c", base),
            eval::experiment_fingerprint("c", other));
  other = base;
  other.n_chips += 1;
  EXPECT_NE(eval::experiment_fingerprint("c", base),
            eval::experiment_fingerprint("c", other));
  EXPECT_NE(eval::experiment_fingerprint("c", base),
            eval::experiment_fingerprint("d", base));
  // Execution-only knobs must NOT change the fingerprint, or a resumed run
  // could never share its own journal.
  other = base;
  other.deadline_s = 5.0;
  other.resume = true;
  other.checkpoint_path = "x";
  EXPECT_EQ(eval::experiment_fingerprint("c", base),
            eval::experiment_fingerprint("c", other));
}

// --- Trial quarantine and resume in the experiment runner ---

TEST(ExperimentResilience, InjectedTrialFaultIsQuarantined) {
  FaultSpecGuard guard;
  const auto nl = small_netlist();
  const eval::ExperimentConfig config = small_config();
  const auto clean = eval::run_diagnosis_experiment(nl, config);
  ASSERT_EQ(clean.trials.size(), 4u);
  EXPECT_EQ(clean.quarantined_trials(), 0u);

  obs::set_fault_spec("exp.trial@1");
  const auto faulted = eval::run_diagnosis_experiment(nl, config);
  obs::set_fault_spec("");
  EXPECT_EQ(faulted.quarantined_trials(), 1u);
  EXPECT_EQ(faulted.trials[1].status, eval::TrialStatus::kQuarantined);
  EXPECT_EQ(faulted.trials[1].error_code, ErrorCode::kFault);
  EXPECT_FALSE(faulted.trials[1].failed_test);
  EXPECT_FALSE(faulted.degraded);  // quarantine is not degradation
  // The blast radius is exactly one trial: every other record matches the
  // clean run bit for bit.
  for (const std::size_t i : {0u, 2u, 3u}) {
    expect_records_equal(faulted.trials[i], clean.trials[i]);
  }
  // Success-rate denominator excludes the quarantined trial explicitly.
  EXPECT_EQ(faulted.diagnosable_trials() + faulted.quarantined_trials() +
                [&] {
                  std::size_t n = 0;
                  for (const auto& t : faulted.trials) {
                    n += t.status == eval::TrialStatus::kNotFailing ? 1 : 0;
                  }
                  return n;
                }(),
            faulted.trials.size());
}

TEST(ExperimentResilience, ResumeFromPartialJournalIsBitIdentical) {
  const auto nl = small_netlist();
  eval::ExperimentConfig config = small_config();
  const auto reference = eval::run_diagnosis_experiment(nl, config);

  // Full journaled run, then cut the journal down to header + 2 records to
  // simulate a kill partway through.
  const auto path = temp_path("journal_resume.ckpt");
  std::filesystem::remove(path);
  config.checkpoint_path = path.string();
  (void)eval::run_diagnosis_experiment(nl, config);
  {
    const std::string contents = slurp(path);
    std::size_t pos = 0;
    for (int newlines = 0; newlines < 3; ++newlines) {
      pos = contents.find('\n', pos) + 1;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents.substr(0, pos) << "T 0011 partial-tail-no-newline";
  }
  config.resume = true;
  const auto resumed = eval::run_diagnosis_experiment(nl, config);
  EXPECT_EQ(resumed.resumed_trials, 2u);
  ASSERT_EQ(resumed.trials.size(), reference.trials.size());
  for (std::size_t i = 0; i < reference.trials.size(); ++i) {
    expect_records_equal(resumed.trials[i], reference.trials[i]);
  }

  // The deterministic result JSON byte-matches the uninterrupted run's.
  const auto ref_json = temp_path("ref.json");
  const auto res_json = temp_path("res.json");
  eval::write_experiment_json(reference, ref_json.string());
  eval::write_experiment_json(resumed, res_json.string());
  EXPECT_EQ(slurp(ref_json), slurp(res_json));
  std::filesystem::remove(path);
  std::filesystem::remove(ref_json);
  std::filesystem::remove(res_json);
}

TEST(ExperimentResilience, DeadlineDegradesThenResumeFinishes) {
  const auto nl = small_netlist();
  eval::ExperimentConfig config = small_config();
  const auto reference = eval::run_diagnosis_experiment(nl, config);

  const auto path = temp_path("journal_deadline.ckpt");
  std::filesystem::remove(path);
  config.checkpoint_path = path.string();
  config.deadline_s = 1e-9;  // expires before the first trial starts
  const auto degraded = eval::run_diagnosis_experiment(nl, config);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_GT(degraded.skipped_trials(), 0u);
  EXPECT_EQ(degraded.completed_trials(),
            degraded.trials.size() - degraded.skipped_trials());

  config.deadline_s = 0.0;
  config.resume = true;
  const auto finished = eval::run_diagnosis_experiment(nl, config);
  EXPECT_FALSE(finished.degraded);
  EXPECT_EQ(finished.skipped_trials(), 0u);
  for (std::size_t i = 0; i < reference.trials.size(); ++i) {
    expect_records_equal(finished.trials[i], reference.trials[i]);
  }
  std::filesystem::remove(path);
}

TEST(ExperimentResilience, JournalAppendFaultOnlyCostsDurability) {
  FaultSpecGuard guard;
  const auto nl = small_netlist();
  eval::ExperimentConfig config = small_config();
  const auto path = temp_path("journal_writefault.ckpt");
  std::filesystem::remove(path);
  config.checkpoint_path = path.string();
  obs::set_fault_spec("ckpt.write@1");
  const auto result = eval::run_diagnosis_experiment(nl, config);
  obs::set_fault_spec("");
  // The run itself is unharmed; only trial 1's record is missing from the
  // journal, so a resume re-runs exactly that trial.
  EXPECT_EQ(result.quarantined_trials(), 0u);
  const auto load = eval::load_checkpoint(
      path.string(), eval::experiment_fingerprint(nl.name(), config),
      config.n_chips);
  EXPECT_EQ(load.records.size(), config.n_chips - 1);
  std::filesystem::remove(path);
}

// --- NaN delay rows surface as typed numeric errors ---

TEST(NumericValidation, NanDelayRowThrowsNumericError) {
  FaultSpecGuard guard;
  const auto nl = small_netlist();
  const netlist::Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField field(model, 16, 0.03, 9);
  const timing::DynamicTimingSimulator sim(field, lev);
  obs::set_fault_spec("mc.nan_row@2");
  try {
    sim.prewarm();
    FAIL() << "expected NumericError from the poisoned arc row";
  } catch (const NumericError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumeric);
    EXPECT_NE(std::string(e.what()).find("arc 2"), std::string::npos)
        << e.what();
  }
}

// --- Hardened parsers ---

TEST(ParserHardening, BenchFileErrorsCarryPathAndLine) {
  const auto path = temp_path("broken_input.bench");
  {
    std::ofstream out(path);
    out << "INPUT(a)\ng = FROB(a)\n";
  }
  try {
    (void)netlist::parse_bench_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), path.string());
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("broken_input.bench line 2"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
  EXPECT_THROW((void)netlist::parse_bench_file(path), IoError);
}

TEST(ParserHardening, VerilogFileErrorsCarryPathAndLine) {
  const auto path = temp_path("broken_input.v");
  {
    std::ofstream out(path);
    out << "module m (a);\n  input a;\n  frob (x, a);\nendmodule\n";
  }
  try {
    (void)netlist::parse_verilog_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), path.string());
    EXPECT_EQ(e.line(), 3u);
  }
  std::filesystem::remove(path);
  EXPECT_THROW((void)netlist::parse_verilog_file(path), IoError);
}

TEST(ParserHardening, VerilogEofErrorNamesLastLine) {
  try {
    (void)netlist::parse_verilog_string("module m (a);\n  input a;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
    EXPECT_NE(std::string(e.what()).find("end of file"), std::string::npos);
  }
}

}  // namespace
}  // namespace sddd
