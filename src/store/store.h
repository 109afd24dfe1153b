// store.h - Building, writing and memory-mapping persistent dictionary
// stores (format.h).
//
// Build side: serialize_dictionary_store() builds the experiment's own
// world, eval::ExperimentSetup (eval/setup.h), at the knobs the config
// shares with ExperimentConfig, so its dictionary field, size model and
// calibrated clk are the experiment's.  It adds only what belongs to the
// store: the pattern-site sweep, the per-arc size tables and the section
// bytes.  build_dictionary_store() lands the image through the
// obs/atomic_file temp+fsync+rename discipline - a crash mid-build never
// leaves a partial store behind.  The whole pipeline is a pure function of
// (netlist, config): building twice produces byte-identical files, which
// ci.sh cmp-checks.
//
// Read side: DictionaryStore mmaps the file read-only and verifies the
// header, every per-section FNV-1a checksum and the "e" index ON OPEN - a
// store that opens is a store whose every byte has been vouched for;
// afterwards all accessors are raw pointer arithmetic into the mapping
// (plus the S columns of the stored pairs, derived once at open).
// Verification failures throw sddd::StoreError naming the offending
// section.
//
// Fault seams (obs/faults.h): `store.open` (k = process-wide open
// ordinal) fails the open(2)/mmap step; `store.crc` (k = process-wide
// section-verify ordinal; each open verifies header + 4 sections in file
// order, so open n covers k in [5n, 5n+4]) forges a checksum mismatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "defect/injector.h"
#include "diagnosis/behavior.h"
#include "logicsim/bitsim.h"
#include "netlist/netlist.h"
#include "store/format.h"
#include "timing/celllib.h"

namespace sddd::store {

/// Everything that determines a store's content (and thus its
/// fingerprint).  Defaults mirror the experiment harness at CLI `dict
/// build` scale.
struct StoreBuildConfig {
  std::size_t mc_samples = 250;        ///< dictionary Monte-Carlo population
  std::size_t calibration_sites = 16;  ///< clk calibration sweep size
  double clk_site_quantile = 0.7;
  /// Sites whose diagnostic pattern sets are unioned into the store's TP.
  std::size_t pattern_sites = 6;
  std::size_t max_patterns = 24;       ///< |TP| cap after dedup
  std::size_t max_suspects = 300;      ///< DiagnoserConfig::max_suspects
  double global_weight = 0.03;
  double defect_mean_lo = 0.5;
  double defect_mean_hi = 1.0;
  double defect_three_sigma = 0.5;
  timing::CellLibraryConfig library;
  std::uint64_t seed = 2003;
  /// > 0 pins clk directly and skips the calibration sweep.
  double clk_override = 0.0;
};

/// What a build produced (also recoverable from the written header).
struct StoreBuildInfo {
  std::uint64_t fingerprint = 0;
  std::string run_id;  ///< 16-hex spelling of fingerprint
  double clk = 0.0;
  std::size_t n_patterns = 0;
  std::size_t n_outputs = 0;
  std::size_t n_arcs = 0;
  std::uint64_t bytes = 0;
};

/// Renders the complete store image in memory.  Exposed (next to the
/// writer) so tests can corrupt controlled bytes without round-tripping
/// through the filesystem.
std::string serialize_dictionary_store(const netlist::Netlist& nl,
                                       const StoreBuildConfig& config,
                                       StoreBuildInfo* info = nullptr);

/// serialize + atomic write to `out_path`.
StoreBuildInfo build_dictionary_store(const netlist::Netlist& nl,
                                      const StoreBuildConfig& config,
                                      const std::string& out_path);

struct StoreSectionInfo {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t crc = 0;
};

/// A verified, memory-mapped store.  Open performs the full integrity
/// sweep; every accessor afterwards is bounds-checked pointer arithmetic
/// into the read-only mapping.
class DictionaryStore {
 public:
  /// Opens, maps and verifies.  Throws sddd::StoreError (section named)
  /// on any integrity failure; sddd::IoError never escapes - open/stat
  /// failures are StoreError with section "file".  A non-zero
  /// `expect_fingerprint` additionally rejects a store whose fingerprint
  /// differs (stale artifact / wrong experiment).
  explicit DictionaryStore(const std::string& path,
                           std::uint64_t expect_fingerprint = 0);
  ~DictionaryStore();

  DictionaryStore(const DictionaryStore&) = delete;
  DictionaryStore& operator=(const DictionaryStore&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// 16-hex run id (the store's identity in serve requests and ledgers).
  std::string run_id() const;
  const std::string& circuit() const { return circuit_; }
  double clk() const { return clk_; }
  std::uint64_t build_seed() const { return build_seed_; }
  std::size_t mc_samples() const { return mc_samples_; }
  std::size_t n_inputs() const { return n_inputs_; }
  std::size_t n_outputs() const { return n_outputs_; }
  std::size_t n_patterns() const { return n_patterns_; }
  std::size_t n_arcs() const { return n_arcs_; }
  std::size_t max_suspects() const { return max_suspects_; }
  double global_weight() const { return global_weight_; }
  double defect_mean_lo() const { return mean_lo_; }
  double defect_mean_hi() const { return mean_hi_; }
  double defect_three_sigma() const { return three_sigma_; }
  std::uint64_t file_bytes() const { return file_bytes_; }
  const std::vector<StoreSectionInfo>& sections() const { return sections_; }

  /// M_crt column of pattern j: n_outputs() doubles.
  const double* m_column(std::size_t j) const;
  /// The column every arc without a stored column shares under pattern
  /// j: m_column(j) under E matching, a zero column under S matching.
  const double* shared_column(std::size_t j, bool match_e) const;
  /// Column of (pattern j, suspect arc), n_outputs() doubles: E_crt under
  /// E matching, S = max(E - M, 0) under S matching.  Exactly
  /// shared_column(j, match_e) unless the "e" section stores the pair,
  /// i.e. unless its E column differs from M.
  const double* column(std::size_t j, netlist::ArcId arc,
                       bool match_e) const;
  /// Cone bitset of (pattern j, output row i): ceil(n_arcs() / 64) words,
  /// bit a = arc a lies on an active path to that output under pattern j.
  const std::uint64_t* cone_row(std::size_t j, std::size_t output) const;
  /// Pattern j unpacked back to the two-vector test it was built from.
  logicsim::PatternPair pattern(std::size_t j) const;
  /// All patterns (the order the columns are indexed by).
  std::vector<logicsim::PatternPair> patterns() const;

 private:
  void parse_and_verify(std::uint64_t expect_fingerprint);
  void index_e_section();

  /// Pattern j's stored columns: arcs[0..n) ascending, E columns at e,
  /// their S columns at s (all n x n_outputs doubles).
  struct StoredColumns {
    const std::uint64_t* arcs = nullptr;
    std::size_t n = 0;
    const double* e = nullptr;
    const double* s = nullptr;
  };

  std::string path_;
  const unsigned char* map_ = nullptr;
  std::uint64_t map_bytes_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t build_seed_ = 0;
  std::size_t mc_samples_ = 0;
  double clk_ = 0.0;
  std::size_t n_inputs_ = 0;
  std::size_t n_outputs_ = 0;
  std::size_t n_patterns_ = 0;
  std::size_t n_arcs_ = 0;
  std::size_t max_suspects_ = 0;
  double global_weight_ = 0.0;
  double mean_lo_ = 0.0;
  double mean_hi_ = 0.0;
  double three_sigma_ = 0.0;
  std::string circuit_;
  std::uint64_t file_bytes_ = 0;
  std::vector<StoreSectionInfo> sections_;
  std::size_t arc_words_ = 0;
  std::size_t input_words_ = 0;
  // Resolved section base pointers (into map_).
  const std::uint64_t* patterns_ = nullptr;
  const std::uint64_t* cones_ = nullptr;
  const double* m_ = nullptr;
  std::vector<StoredColumns> stored_;  ///< per pattern
  std::vector<double> s_data_;         ///< every stored pair's S column
  std::vector<double> zero_column_;    ///< n_outputs zeros
};

/// Non-throwing whole-file verification (the `dict verify` engine).
struct StoreVerifyReport {
  bool ok = false;
  std::string bad_section;  ///< "" when ok
  std::string message;      ///< human-readable failure, "" when ok
};
StoreVerifyReport verify_store_file(const std::string& path);

/// One synthetic failing chip tested against the store's pattern set.
struct SampledChip {
  defect::InjectedChip chip;
  diagnosis::BehaviorMatrix B{0, 0};
};

/// Draws `n_chips` failing chips from the *instance* Monte-Carlo world of
/// the eval::ExperimentSetup the store was built in (rebuilt from the
/// header at the store's clk; chip t draws from the setup's trial_rng(t))
/// and observes their behavior against the store's patterns.  Chips that
/// never fail within the retry budget are redrawn.  Deterministic; the
/// `dict chips` replay corpus generator.
std::vector<SampledChip> sample_failing_chips(const netlist::Netlist& nl,
                                              const DictionaryStore& store,
                                              std::size_t n_chips,
                                              std::size_t max_retries = 120);

}  // namespace sddd::store
