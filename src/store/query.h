// query.h - Diagnosing chips straight out of a memory-mapped store.
//
// StoreQueryEngine is the Diagnoser re-rooted onto DictionaryStore:
// suspect extraction walks the stored per-(pattern, output) cone bitsets
// and selects through the diagnoser's select_suspects(), and scoring is
// the diagnoser's own loop, diagnosis::score_suspects(), with the stored
// E (or S) columns as its column source.  Because the store's columns were
// produced by the identical PatternSlice code paths and are raw doubles,
// the engine's scores, keys, ranks and captured phi are BIT-IDENTICAL to
// an in-process Diagnoser::diagnose() over a freshly built dictionary at
// the store's config - the byte-identity contract ci.sh enforces end to
// end through the serve path.  The engine scores on the caller's thread;
// the server already runs one request per connection thread.
//
// diagnose_batch_json() is the single response renderer: `sddd_cli dict
// query` (in-process) and the serve loop both emit its bytes verbatim, so
// the two transports are cmp-comparable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "store/store.h"

namespace sddd::store {

class StoreQueryEngine {
 public:
  /// The engine borrows `store`, which must outlive it.
  explicit StoreQueryEngine(const DictionaryStore& store) : store_(&store) {}

  const DictionaryStore& store() const { return *store_; }

  /// Algorithm E.1 step 1 from the stored cone bitsets; identical suspect
  /// sets (same support counts, same max_suspects cap policy) as
  /// Diagnoser::extract_suspects.
  std::vector<netlist::ArcId> extract_suspects(
      const diagnosis::BehaviorMatrix& B) const;

  /// Full diagnosis over the stored columns.  `match_on_total_probability`
  /// selects the E ("e", default) vs S ("s") section;
  /// `capture_phi` populates DiagnosisResult::phi.  B must be
  /// n_outputs() x n_patterns().
  diagnosis::DiagnosisResult diagnose(const diagnosis::BehaviorMatrix& B,
                                      std::span<const diagnosis::Method> methods,
                                      bool match_on_total_probability = true,
                                      bool capture_phi = false) const;

 private:
  const DictionaryStore* store_;
};

/// One chip of a batch request.
struct ChipQuery {
  std::string id;  ///< caller-chosen label, echoed back
  diagnosis::BehaviorMatrix B{0, 0};
};

/// Parses behavior rows ("0101..." per output, column j = pattern j) into
/// a BehaviorMatrix; throws sddd::ParseError on any dimension or character
/// mismatch.
diagnosis::BehaviorMatrix behavior_from_rows(
    const std::vector<std::string>& rows, std::size_t n_outputs,
    std::size_t n_patterns);

/// Diagnoses every chip and renders the canonical response JSON (single
/// line, no trailing newline):
///
///   {"ok":true,"op":"diagnose","run_id":...,"circuit":...,"match":"e"|"s",
///    "mc_samples":N,"n_patterns":N,
///    "chips":[{"id":...,"n_suspects":N,
///              "methods":{"Alg_sim-I":[{"arc":A,"score":S,"key":K},...],...},
///              "phi":{"A":[phi_1..phi_TP],...}},...]}
///
/// `top_k` caps each method's ranked list (0 = all suspects); "phi" holds
/// the per-pattern consistency probabilities of the union of every
/// method's reported arcs, keyed by arc id in ascending order.  All
/// doubles are %.17g, so equal diagnoses render byte-identically.
std::string diagnose_batch_json(const StoreQueryEngine& engine,
                                std::span<const ChipQuery> chips,
                                bool match_on_total_probability,
                                std::size_t top_k);

}  // namespace sddd::store
