// Tests for the persistent dictionary store: build determinism, a clk
// equal to the experiment's calibration, the sparse "e" section (exactly the E columns that differ from M), the
// StoreQueryEngine's bit-identity to the reference scorer (score_oracle.h)
// and to an in-process Diagnoser over the same dictionary world, suspect
// extraction from stored and cached cone rows against the graph walk of
// extract_oracle.h, and the
// loader's corruption taxonomy (truncated tails, single bit flips, version
// and fingerprint mismatches, wrapped extents, malformed "e" indexes)
// with the offending section named every time.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/signature_matrix.h"
#include "eval/experiment.h"
#include "extract_oracle.h"
#include "logicsim/bitsim.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "obs/faults.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "score_oracle.h"
#include "store/query.h"
#include "store/store.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace sddd {
namespace {

struct FaultSpecGuard {
  ~FaultSpecGuard() { obs::set_fault_spec(""); }
};

/// Per-process scratch path: this file is built into both the main test
/// binary and the store/serve smoke binary, which ctest may run at once.
std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) /
         (std::to_string(::getpid()) + "_" + name);
}

void write_raw(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

netlist::Netlist store_netlist() {
  netlist::SynthSpec spec;
  spec.name = "storetest";
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 50;
  spec.depth = 7;
  spec.seed = 23;
  return netlist::synthesize(spec);
}

store::StoreBuildConfig small_config() {
  store::StoreBuildConfig config;
  config.mc_samples = 40;
  config.pattern_sites = 3;
  config.max_patterns = 8;
  config.seed = 31;
  return config;
}

std::uint64_t counter_value(const std::string& name) {
  const auto counters = obs::MetricsRegistry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t injected_faults() { return counter_value("fault.injected"); }

/// A serialized store with its section table located, so a test can
/// rewrite a table entry or the final section and reseal every checksum:
/// the check under test, not a crc, must then reject the file.
struct StoreImage {
  static constexpr std::size_t kEntryBytes = store::kStoreSectionNameLen + 24;
  std::string bytes;
  std::size_t table_at = 0;  ///< first section-table entry ("patterns")

  explicit StoreImage(std::string b) : bytes(std::move(b)) {
    table_at = bytes.find(std::string(store::kStoreSectionNames[0], 8));
  }
  std::uint64_t u64(std::size_t at) const {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, 8);
    return v;
  }
  void set_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(bytes.data() + at, &v, 8);
  }
  /// Table entry s: name, then u64 offset, bytes, crc.
  std::size_t entry(std::size_t s) const {
    return table_at + s * kEntryBytes + store::kStoreSectionNameLen;
  }
  std::size_t header_crc_at() const {
    return table_at + store::kStoreSectionCount * kEntryBytes;
  }
  std::uint64_t offset(std::size_t s) const { return u64(entry(s)); }
  std::uint64_t size(std::size_t s) const { return u64(entry(s) + 8); }

  /// The final section's payload as words, and its replacement: resizes
  /// the file, rewrites the entry and total_bytes, reseals both crcs.
  std::vector<std::uint64_t> last_section_words() const {
    const std::size_t s = store::kStoreSectionCount - 1;
    std::vector<std::uint64_t> words(size(s) / 8);
    std::memcpy(words.data(), bytes.data() + offset(s), size(s));
    return words;
  }
  void set_last_section(const std::vector<std::uint64_t>& words) {
    const std::size_t s = store::kStoreSectionCount - 1;
    const std::string payload(reinterpret_cast<const char*>(words.data()),
                              words.size() * 8);
    bytes.resize(offset(s));
    bytes.append(payload);
    set_u64(entry(s) + 8, payload.size());
    set_u64(entry(s) + 16, obs::fnv1a64(payload));
    set_u64(table_at - 8, bytes.size());  // total_bytes precedes the table
    reseal_header();
  }
  void reseal_header() {
    const std::size_t at = header_crc_at();
    set_u64(at, obs::fnv1a64(std::string_view(bytes.data(), at)));
  }
};

/// The in-memory dictionary world a store built at `config` serialized
/// (the same field seeds, size model and calibrated clk).
struct DictionaryTwin {
  netlist::Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  timing::DelayField field;
  logicsim::BitSimulator logic_sim;
  timing::DynamicTimingSimulator sim;
  defect::DefectSizeModel size_model;

  DictionaryTwin(const netlist::Netlist& nl,
                 const store::StoreBuildConfig& config)
      : lev(nl),
        lib(config.library),
        model(nl, lib),
        field(model, config.mc_samples, config.global_weight,
              config.seed ^ 0xd1c7ULL),
        logic_sim(nl, lev),
        sim(field, lev),
        size_model(model.mean_cell_delay(), config.defect_mean_lo,
                   config.defect_mean_hi, config.defect_three_sigma,
                   config.seed ^ 0x5e1fULL) {}
};

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(Store, SerializationIsDeterministic) {
  const auto nl = store_netlist();
  store::StoreBuildInfo a_info, b_info;
  const std::string a =
      store::serialize_dictionary_store(nl, small_config(), &a_info);
  const std::string b =
      store::serialize_dictionary_store(nl, small_config(), &b_info);
  EXPECT_EQ(a, b) << "same netlist + config must serialize byte-identically";
  EXPECT_EQ(a_info.fingerprint, b_info.fingerprint);
  EXPECT_GT(a_info.n_patterns, 0u);
  EXPECT_EQ(a.size(), a_info.bytes);
}

TEST(Store, RoundTripMatchesInMemoryDiagnoser) {
  const auto nl = store_netlist();
  const auto path = temp_path("roundtrip.dict");
  const auto config = small_config();
  store::build_dictionary_store(nl, config, path.string());

  const store::DictionaryStore st(path.string());
  EXPECT_EQ(st.circuit(), nl.name());
  EXPECT_EQ(st.mc_samples(), config.mc_samples);
  EXPECT_TRUE(store::verify_store_file(path.string()).ok);

  // The in-memory twin: the exact dictionary world the store serialized
  // (same field seeds, size model and clk), scored by the Diagnoser.
  const netlist::Levelization lev(nl);
  const timing::StatisticalCellLibrary lib(config.library);
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField dict_field(model, config.mc_samples,
                                      config.global_weight,
                                      config.seed ^ 0xd1c7ULL);
  const logicsim::BitSimulator logic_sim(nl, lev);
  const timing::DynamicTimingSimulator dict_sim(dict_field, lev);
  const defect::DefectSizeModel size_model(
      model.mean_cell_delay(), config.defect_mean_lo, config.defect_mean_hi,
      config.defect_three_sigma, config.seed ^ 0x5e1fULL);
  diagnosis::DiagnoserConfig dcfg;
  dcfg.max_suspects = config.max_suspects;
  dcfg.capture_phi = true;
  const diagnosis::Diagnoser diagnoser(dict_sim, logic_sim, lev, size_model,
                                       dcfg);
  dcfg.match_on_total_probability = false;
  const diagnosis::Diagnoser s_diagnoser(dict_sim, logic_sim, lev, size_model,
                                         dcfg);

  const auto chips = store::sample_failing_chips(nl, st, 3);
  ASSERT_FALSE(chips.empty());
  const auto patterns = st.patterns();
  const std::vector<diagnosis::Method> methods = {
      diagnosis::Method::kSimI, diagnosis::Method::kSimII,
      diagnosis::Method::kSimIII, diagnosis::Method::kRev};
  const store::StoreQueryEngine engine(st);
  const std::size_t threads_before = runtime::thread_count();
  for (const auto& chip : chips) {
    // The store holds the raw doubles the dictionary computes, so the
    // engine matches the reference exactly, under E and S matching and at
    // any thread count.
    for (const bool match_e : {true, false}) {
      const auto want = test_oracle::oracle_diagnosis(
          dict_sim, logic_sim, lev, size_model, patterns, chip.B,
          diagnoser.extract_suspects(patterns, chip.B), methods, st.clk(),
          match_e);
      for (const std::size_t threads : {1, 4}) {
        runtime::set_thread_count(threads);
        test_oracle::expect_same_diagnosis(
            engine.diagnose(chip.B, methods, match_e, true), want);
      }
      runtime::set_thread_count(threads_before);
      test_oracle::expect_same_diagnosis(
          (match_e ? diagnoser : s_diagnoser)
              .diagnose(patterns, chip.B, methods, st.clk()),
          want);
    }
  }
}

TEST(Store, ClkMatchesExperimentCalibration) {
  // The store follows the experiment's seed discipline: at the knobs the
  // two configs share, the store's calibrated clk is the experiment's.
  const auto nl = store_netlist();
  const store::StoreBuildConfig config = small_config();
  eval::ExperimentConfig experiment;
  experiment.mc_samples = config.mc_samples;
  experiment.n_chips = 0;
  experiment.calibration_sites = config.calibration_sites;
  experiment.clk_site_quantile = config.clk_site_quantile;
  experiment.global_weight = config.global_weight;
  experiment.defect_mean_lo = config.defect_mean_lo;
  experiment.defect_mean_hi = config.defect_mean_hi;
  experiment.defect_three_sigma = config.defect_three_sigma;
  experiment.max_suspects = config.max_suspects;
  experiment.library = config.library;
  experiment.seed = config.seed;
  store::StoreBuildInfo info;
  store::serialize_dictionary_store(nl, config, &info);
  EXPECT_EQ(info.clk, eval::run_diagnosis_experiment(nl, experiment).clk);

  // A pinned clk skips the calibration and is the store's clk.
  store::StoreBuildConfig pinned = config;
  pinned.clk_override = 0.75 * info.clk;
  store::serialize_dictionary_store(nl, pinned, &info);
  EXPECT_EQ(info.clk, pinned.clk_override);
}

TEST(Store, StoredColumnsAreExactlyThoseDifferingFromM) {
  const auto nl = store_netlist();
  const auto config = small_config();
  const auto path = temp_path("stored_columns.dict");
  store::build_dictionary_store(nl, config, path.string());
  const store::DictionaryStore st(path.string());
  const DictionaryTwin twin(nl, config);
  const auto patterns = st.patterns();
  const std::size_t n_out = st.n_outputs();
  std::size_t n_stored = 0;
  for (std::size_t j = 0; j < st.n_patterns(); ++j) {
    const diagnosis::PatternSlice slice(twin.sim, twin.logic_sim, twin.lev,
                                        patterns[j], st.clk());
    ASSERT_TRUE(same_bits(slice.m_column().data(), st.m_column(j), n_out));
    for (netlist::ArcId a = 0; a < st.n_arcs(); ++a) {
      const auto e = slice.e_column(a, twin.size_model);
      const bool differs = !same_bits(e.data(), st.m_column(j), n_out);
      n_stored += differs;
      // A stored pair holds the computed column and its S; every other
      // pair reads the shared M (E matching) or zero (S matching) column.
      const double* e_col = st.column(j, a, true);
      const double* s_col = st.column(j, a, false);
      EXPECT_EQ(e_col == st.shared_column(j, true), !differs) << j << "/" << a;
      EXPECT_EQ(s_col == st.shared_column(j, false), !differs)
          << j << "/" << a;
      EXPECT_TRUE(same_bits(e.data(), e_col, n_out)) << j << "/" << a;
      const auto sig = slice.signature_column(a, twin.size_model);
      EXPECT_TRUE(same_bits(sig.data(), s_col, n_out)) << j << "/" << a;
    }
  }
  // The test world must exercise both kinds of pair.
  EXPECT_GT(n_stored, 0u);
  EXPECT_LT(n_stored, st.n_patterns() * st.n_arcs());
}

// Suspect extraction has one implementation, suspects_from_cone_rows(),
// fed by the signature cache's cone rows (Diagnoser) or by the store's
// "cones" section (engine).  On stand-ins with thousands of arcs, both
// must equal the per-chip graph walk it replaced, uncapped and capped.
class ExtractionEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ExtractionEquivalence, DiagnoserAndStoreMatchGraphWalk) {
  const std::string name = GetParam();
  const netlist::Netlist nl = netlist::make_standin(
      *netlist::find_profile(name), name == "s1196" ? 1.0 : 0.35, 7);
  ASSERT_GT(nl.arc_count(), 640u) << "rows of ten words or more";
  for (const std::size_t cap : {std::size_t{0}, std::size_t{8}}) {
    store::StoreBuildConfig config;
    config.mc_samples = 24;
    config.calibration_sites = 4;
    config.pattern_sites = 3;
    config.max_patterns = 16;
    config.max_suspects = cap;
    config.seed = 41;
    const auto path = temp_path("extract_" + name + ".dict");
    store::build_dictionary_store(nl, config, path.string());
    const store::DictionaryStore st(path.string());
    ASSERT_EQ(st.max_suspects(), cap);
    const store::StoreQueryEngine engine(st);
    const DictionaryTwin twin(nl, config);
    diagnosis::DiagnoserConfig dcfg;
    dcfg.max_suspects = cap;
    const diagnosis::Diagnoser diagnoser(twin.sim, twin.logic_sim, twin.lev,
                                         twin.size_model, dcfg);
    // A shared cache serves the rows of every chip after the first.
    const diagnosis::SignatureCache cache(twin.sim, twin.logic_sim, twin.lev,
                                          twin.size_model, st.clk(), true);
    dcfg.cache = &cache;
    const diagnosis::Diagnoser cached(twin.sim, twin.logic_sim, twin.lev,
                                      twin.size_model, dcfg);
    const auto patterns = st.patterns();
    const auto chips = store::sample_failing_chips(nl, st, 50);
    ASSERT_GE(chips.size(), 50u);
    std::size_t capped = 0;
    for (const auto& chip : chips) {
      const auto want = test_oracle::oracle_suspects(
          twin.logic_sim, twin.lev, patterns, chip.B, cap);
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(diagnoser.extract_suspects(patterns, chip.B), want);
      EXPECT_EQ(cached.extract_suspects(patterns, chip.B), want);
      EXPECT_EQ(engine.extract_suspects(chip.B), want);
      capped += cap != 0 && want.size() == cap;
    }
    // The cap must bind somewhere, or the capped run tests nothing new.
    if (cap != 0) {
      EXPECT_GT(capped, 0u);
    }
    std::filesystem::remove(path);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Standins, ExtractionEquivalence, ::testing::Values("s1196", "s9234"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

TEST(Store, ExtractionIgnoresRowPaddingBits) {
  // A stored row is file bytes: bits past the last arc must not count.
  // Three arcs, one word per row, padding set in every row.
  const std::uint64_t rows[2] = {0b101 | (~0ULL << 3), 0b100 | (1ULL << 63)};
  const std::uint64_t* ptrs[2] = {&rows[0], &rows[1]};
  EXPECT_EQ(diagnosis::suspects_from_cone_rows(ptrs, 3, 0),
            (std::vector<netlist::ArcId>{0, 2}));
  // Capped at one: arc 2 has support 2, arc 0 support 1.
  EXPECT_EQ(diagnosis::suspects_from_cone_rows(ptrs, 3, 1),
            (std::vector<netlist::ArcId>{2}));
}

TEST(Store, QueryScoresSharedColumnOncePerPattern) {
  const auto nl = store_netlist();
  const auto path = temp_path("shared_phi.dict");
  store::build_dictionary_store(nl, small_config(), path.string());
  const store::DictionaryStore st(path.string());
  const store::StoreQueryEngine engine(st);
  const std::vector<diagnosis::Method> methods = {diagnosis::Method::kSimI,
                                                  diagnosis::Method::kRev};
  const auto chips = store::sample_failing_chips(nl, st, 3);
  ASSERT_FALSE(chips.empty());
  for (const auto& chip : chips) {
    const auto suspects = engine.extract_suspects(chip.B);
    std::size_t stored_pairs = 0;
    for (std::size_t j = 0; j < st.n_patterns(); ++j) {
      for (const netlist::ArcId a : suspects) {
        stored_pairs += st.column(j, a, true) != st.shared_column(j, true);
      }
    }
    // One phi per pattern for every suspect without a stored column, one
    // per stored pair: well under a phi per (suspect, pattern).
    const std::size_t bound = st.n_patterns() + stored_pairs;
    ASSERT_LT(bound, suspects.size() * st.n_patterns());
    for (const bool match_e : {true, false}) {
      const std::uint64_t before = counter_value("diag.phi_evals");
      engine.diagnose(chip.B, methods, match_e);
      EXPECT_LE(counter_value("diag.phi_evals") - before, bound)
          << (match_e ? "e" : "s");
    }
  }
}

TEST(Store, TruncatedTailNamesTheSection) {
  const auto nl = store_netlist();
  const std::string bytes =
      store::serialize_dictionary_store(nl, small_config());
  const auto path = temp_path("truncated.dict");
  write_raw(path, bytes.substr(0, bytes.size() - 16));
  const auto report = store::verify_store_file(path.string());
  EXPECT_FALSE(report.ok);
  // "e" is the final section, so a cut tail lands there.
  EXPECT_EQ(report.bad_section, "e") << report.message;
}

TEST(Store, WrappedSectionExtentIsTypedError) {
  const auto nl = store_netlist();
  StoreImage image(store::serialize_dictionary_store(nl, small_config()));
  // offset + bytes wraps past 2^64 to 64, inside the file: only a check
  // written without the sum sees that the extent starts 2^64 - 2^40 bytes
  // in.  The header crc is FNV-1a, so anyone can reseal it.
  const std::size_t cones = 1;
  ASSERT_STREQ(store::kStoreSectionNames[cones], "cones");
  image.set_u64(image.entry(cones), 0 - (std::uint64_t{1} << 40));
  image.set_u64(image.entry(cones) + 8, (std::uint64_t{1} << 40) + 64);
  image.reseal_header();
  // Whole file (the per-section extent check) and a cut tail (the
  // truncation scan that names the first section past the end).
  for (const std::size_t cut : {0, 16}) {
    const auto path = temp_path("wrapped.dict");
    write_raw(path, image.bytes.substr(0, image.bytes.size() - cut));
    const auto report = store::verify_store_file(path.string());
    EXPECT_FALSE(report.ok) << cut;
    EXPECT_EQ(report.bad_section, "cones") << report.message;
  }
}

TEST(Store, MalformedEIndexIsTypedError) {
  const auto nl = store_netlist();
  const StoreImage good(store::serialize_dictionary_store(nl, small_config()));
  const std::size_t n_out = nl.outputs().size();
  const std::vector<std::uint64_t> words = good.last_section_words();
  // Word offsets of each pattern's column count, and the first pattern
  // storing at least two columns.
  std::vector<std::size_t> counts;
  std::size_t two = words.size();
  for (std::size_t at = 0; at < words.size();
       at += 1 + words[at] * (1 + n_out)) {
    counts.push_back(at);
    if (two == words.size() && words[at] >= 2) two = at;
  }
  ASSERT_LT(two, words.size()) << "test world stores no pattern with 2 arcs";

  struct Case {
    const char* what;
    const char* message;  ///< the check that must fire
    std::vector<std::uint64_t> words;
  };
  std::vector<Case> cases;
  // The last arc of the pattern, so the ids stay ascending.
  cases.push_back({"arc >= n_arcs", "stores arc", words});
  cases.back().words[two + words[two]] = nl.arc_count();
  cases.push_back({"arcs not ascending", "ascending", words});
  cases.back().words[two + 2] = words[two + 1];
  cases.push_back({"count overruns the section", "overrun", words});
  cases.back().words[counts.back()] += 1;
  // count * (1 + n_outputs) wraps past 2^64 to a few words.
  cases.push_back({"count overflows", "overrun", words});
  cases.back().words[counts.front()] = UINT64_MAX / (1 + n_out) + 1;
  cases.push_back({"trailing bytes", "trailing", words});
  cases.back().words.push_back(0);
  for (const Case& c : cases) {
    StoreImage bad = good;
    bad.set_last_section(c.words);
    const auto path = temp_path("bad_index.dict");
    write_raw(path, bad.bytes);
    const auto report = store::verify_store_file(path.string());
    EXPECT_FALSE(report.ok) << c.what;
    EXPECT_EQ(report.bad_section, "e") << c.what << ": " << report.message;
    EXPECT_NE(report.message.find(c.message), std::string::npos)
        << c.what << ": " << report.message;
  }
  // Resealing the untouched words reproduces the good file, so each case
  // above differs from a valid store only in its one edit.
  StoreImage same = good;
  same.set_last_section(words);
  EXPECT_EQ(same.bytes, good.bytes);
}

TEST(Store, SingleBitFlipNamesTheSection) {
  const auto nl = store_netlist();
  const auto good_path = temp_path("bitflip_good.dict");
  store::build_dictionary_store(nl, small_config(), good_path.string());
  const store::DictionaryStore good(good_path.string());
  std::ifstream in(good_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  for (const auto& sec : good.sections()) {
    std::string corrupt = bytes;
    corrupt[sec.offset + sec.bytes / 2] ^= 0x10;
    const auto path = temp_path("bitflip_" + sec.name + ".dict");
    write_raw(path, corrupt);
    const auto report = store::verify_store_file(path.string());
    EXPECT_FALSE(report.ok) << sec.name;
    EXPECT_EQ(report.bad_section, sec.name) << report.message;
  }
}

TEST(Store, VersionMismatchRejected) {
  const auto nl = store_netlist();
  std::string bytes = store::serialize_dictionary_store(nl, small_config());
  // Locate the header checksum: the u64 at position p equal to the FNV of
  // every byte before p.  Scanning is format-agnostic, so this test keeps
  // working if header fields are added.
  std::size_t crc_pos = 0;
  for (std::size_t p = 16; p + 8 <= std::min<std::size_t>(bytes.size(), 4096);
       ++p) {
    std::uint64_t at = 0;
    std::memcpy(&at, bytes.data() + p, 8);
    if (at == obs::fnv1a64(std::string_view(bytes.data(), p))) {
      crc_pos = p;
      break;
    }
  }
  ASSERT_GT(crc_pos, 0u) << "header checksum not found";
  // Stamp the previous and the next format version (u32 after the 8-byte
  // magic) and re-seal the header so the version check, not the checksum,
  // does the rejecting: one reader, one format.
  for (const std::uint32_t version :
       {store::kStoreFormatVersion - 1, store::kStoreFormatVersion + 1}) {
    std::memcpy(bytes.data() + 8, &version, 4);
    const std::uint64_t crc =
        obs::fnv1a64(std::string_view(bytes.data(), crc_pos));
    std::memcpy(bytes.data() + crc_pos, &crc, 8);
    const auto path = temp_path("version.dict");
    write_raw(path, bytes);
    const auto report = store::verify_store_file(path.string());
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.bad_section, "header");
    EXPECT_NE(report.message.find("version " + std::to_string(version)),
              std::string::npos)
        << report.message;
  }
}

TEST(Store, FingerprintMismatchRejected) {
  const auto nl = store_netlist();
  const auto path = temp_path("fingerprint.dict");
  const auto info =
      store::build_dictionary_store(nl, small_config(), path.string());
  // The store opens under its own fingerprint, and refuses a foreign one.
  const store::DictionaryStore st(path.string(), info.fingerprint);
  EXPECT_EQ(st.run_id(), info.run_id);
  try {
    const store::DictionaryStore wrong(path.string(), info.fingerprint ^ 1);
    FAIL() << "foreign fingerprint must be rejected";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(Store, FaultSeamsCoverOpenAndChecksum) {
  const auto nl = store_netlist();
  const auto path = temp_path("faults.dict");
  store::build_dictionary_store(nl, small_config(), path.string());

  FaultSpecGuard guard;
  const std::uint64_t before = injected_faults();
  obs::set_fault_spec("store.open@*");
  EXPECT_THROW(store::DictionaryStore(path.string()), StoreError);
  EXPECT_GT(injected_faults(), before);

  obs::set_fault_spec("store.crc@*");
  const auto report = store::verify_store_file(path.string());
  EXPECT_FALSE(report.ok);
}

}  // namespace
}  // namespace sddd
