// query.h - Diagnosing chips straight out of a memory-mapped store.
//
// StoreQueryEngine is the Diagnoser re-rooted onto DictionaryStore:
// suspect extraction hands the stored per-(pattern, output) cone rows of
// the failing cells to the diagnoser's suspects_from_cone_rows(), and
// scoring is
// the diagnoser's own loop, diagnosis::score_suspects(), with the stored
// E (or S) columns as its column source and the pattern's M (or zero)
// column shared by every suspect the store holds no column for.  Because
// the store's columns were produced by the identical PatternSlice code
// paths and are raw doubles, and a column equal to M scores exactly as M
// does, the engine's scores, keys, ranks and captured phi are
// BIT-IDENTICAL to an in-process Diagnoser::diagnose() over a freshly
// built dictionary at the store's config - the byte-identity contract
// ci.sh enforces end to end through the serve path.  The engine scores on the caller's thread;
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
#include "obs/json.h"
#include "store/store.h"

namespace sddd::store {

class StoreQueryEngine {
 public:
  /// The engine borrows `store`, which must outlive it.
  explicit StoreQueryEngine(const DictionaryStore& store) : store_(&store) {}

  const DictionaryStore& store() const { return *store_; }

  /// Algorithm E.1 step 1 from the stored cone rows, through the same
  /// suspects_from_cone_rows() as Diagnoser::extract_suspects, so the two
  /// suspect sets are identical.
  std::vector<netlist::ArcId> extract_suspects(
      const diagnosis::BehaviorMatrix& B) const;

  /// Full diagnosis over the stored columns.  `match_on_total_probability`
  /// selects E ("e", default) vs S ("s") matching;
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

/// A decoded diagnose request (parse_batch_query).
struct BatchQuery {
  bool match_e = true;           ///< "match": "e" (default) or "s"
  std::size_t top_k = 0;         ///< "top", clamped at 0 (= all suspects)
  std::vector<ChipQuery> chips;  ///< "chips": [{"id":..., "b":[rows]}]
};

/// Decodes `req`'s "match", "top" and "chips" against `store`'s
/// dimensions; a missing "top" is `default_top_k` and a chip without an
/// "id" is named by its index.  On a malformed request returns false and
/// sets `*error` to the message of the server's bad_request response.
bool parse_batch_query(const obs::JsonValue& req, const DictionaryStore& store,
                       std::size_t default_top_k, BatchQuery* out,
                       std::string* error);

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
