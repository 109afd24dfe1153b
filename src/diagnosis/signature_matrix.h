// signature_matrix.h - Cached suspect signature/E columns, shared across
// every chip of an experiment.
//
// A dictionary column depends only on (pattern, suspect, size model,
// dictionary delay field, clk, match mode) - never on the chip under
// diagnosis.  The cache materializes each column exactly once, in a
// suspect-major SoA layout (one 64-byte-aligned contiguous column of |O|
// doubles per suspect), and hands the scoring loop (score_kernel.h) stable
// pointers; every later chip that shares the (circuit, clk, pattern set)
// pays only the packed phi evaluation.  Columns are validated once here,
// at ingest, through the same check_probability_column /
// check_signature_column guards PatternSlice applies, so the kernel needs
// no per-evaluation contract scan.
//
// Collapse: a suspect the pattern does not sensitize (off every active
// path) has an E column bit-equal to the baseline M column and an S column
// of exact zeros.  The cache never builds or looks up such a column; it
// hands out the pattern's one shared baseline column instead, and the
// scoring loop evaluates phi once for every suspect holding it.  The
// static diagnosability report (sddd_lint --diagnosability) predicts
// exactly which (suspect, pattern) cells collapse.
//
// Keying: patterns are keyed by an FNV-1a fingerprint of their (v1, v2)
// bits with full equality verification on the stored pattern (collisions
// fall into a bucket list), and the cache as a whole is keyed by
// construction - one cache per ExperimentSetup, whose inputs are exactly
// the fields of the experiment run fingerprint (see DESIGN.md section 12).
// The defect-size table per suspect is precomputed once (sample(arc, k) is
// a pure function of (arc, k)), so cached columns are bit-identical to
// PatternSlice::e_column / signature_column.
//
// Thread safety: one experiment shares a single cache across its parallel
// trial workers.  A cache-level mutex guards the pattern map, a per-entry
// mutex serializes column builds for one pattern (distinct patterns build
// concurrently), and returned pointers stay valid for the cache's lifetime
// - columns are never moved or evicted.  The underlying simulator must be
// prewarm()ed before concurrent use.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "defect/defect_model.h"
#include "diagnosis/dictionary.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "timing/dynamic_sim.h"

namespace sddd::diagnosis {

class SignatureCache {
 public:
  /// `sim` must wrap the *dictionary* delay field.  `clk` and the match
  /// mode are fixed per cache (they change every column); diagnose() calls
  /// against a different clk or match mode are rejected.
  SignatureCache(const timing::DynamicTimingSimulator& sim,
                 const logicsim::BitSimulator& logic_sim,
                 const netlist::Levelization& lev,
                 const defect::DefectSizeModel& size_model, double clk,
                 bool match_on_total_probability);

  double clk() const { return clk_; }
  bool match_on_total_probability() const { return match_e_; }

  /// Monte-Carlo samples behind every cached column.
  std::size_t sample_count() const { return sim_->field().sample_count(); }

  /// Column length (|O|); 0 until the first pattern has been sliced.
  std::size_t output_count() const {
    return n_outputs_.load(std::memory_order_acquire);
  }

  /// Writes the column pointer of every suspect under `pattern` into
  /// out[i] (suspect order preserved), building any sensitized suspect's
  /// column not yet cached.  Unsensitized suspects get the pattern's
  /// shared baseline column, which is returned.  Pointers address
  /// contiguous, ingest-validated columns of output_count() doubles and
  /// stay valid for the cache's lifetime.
  const double* columns(const logicsim::PatternPair& pattern,
                        std::span<const netlist::ArcId> suspects,
                        std::vector<const double*>& out) const;

  /// Per-pattern collapse support: which arcs the pattern sensitizes at
  /// all, plus the baseline column every *unsensitized* suspect's column
  /// provably equals bit-for-bit (the defect-free M column under E
  /// matching, the exact-zero column under S matching).
  struct CollapseSlice {
    std::vector<char> active;      ///< per arc: on some active path
    std::vector<double> baseline;  ///< |O| doubles; shared inactive column
  };

  /// The collapse slice of `pattern`, built on first use (from the same
  /// transient PatternSlice as the pattern's first columns, amortized
  /// across every chip of the experiment).  The reference stays valid for
  /// the cache's lifetime.
  const CollapseSlice& collapse_slice(
      const logicsim::PatternPair& pattern) const;

  /// Precomputed per-sample defect sizes of one suspect; sizes()[k] ==
  /// size_model.sample(suspect, k).  The span stays valid for the cache's
  /// lifetime.
  std::span<const double> sizes_for(netlist::ArcId suspect) const;

  struct Stats {
    /// (pattern, sensitized suspect) lookups served cached; unsensitized
    /// suspects take the shared baseline and count as neither.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< lookups that built a column
    std::uint64_t bytes = 0;   ///< resident column bytes
  };
  /// This cache's own accounting; the dict.sig_cache.{hits,misses,bytes}
  /// counters aggregate the same events across all caches.
  Stats stats() const;

 private:
  struct AlignedFree {
    void operator()(double* p) const noexcept;
  };
  /// One suspect's column: contiguous, 64-byte aligned, address-stable.
  using Column = std::unique_ptr<double[], AlignedFree>;

  struct Entry {
    logicsim::PatternPair pattern;
    std::mutex mu;
    std::unordered_map<netlist::ArcId, std::size_t> index;
    std::deque<Column> cols;  ///< deque: growth never moves a column
    std::unique_ptr<CollapseSlice> collapse;  ///< lazily built, never moved
  };

  Entry& entry_for(const logicsim::PatternPair& pattern) const;
  /// Builds entry.collapse from `slice`; entry.mu must be held.
  void fill_collapse(Entry& entry, const PatternSlice& slice) const;

  const timing::DynamicTimingSimulator* sim_;
  const logicsim::BitSimulator* logic_sim_;
  const netlist::Levelization* lev_;
  const defect::DefectSizeModel* size_model_;
  double clk_;
  bool match_e_;

  mutable std::mutex map_mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::vector<std::unique_ptr<Entry>>>
      entries_;
  mutable std::mutex sizes_mu_;
  mutable std::unordered_map<netlist::ArcId, std::vector<double>> sizes_;
  mutable std::atomic<std::size_t> n_outputs_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace sddd::diagnosis
