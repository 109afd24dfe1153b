// diagnoser.h - Algorithms E.1 (Alg_sim, Methods I/II/III) and F.1
// (Alg_rev) over the probabilistic fault dictionary.
//
// Flow per Algorithm E.1:
//   1. suspect extraction (cause-effect, logic domain): every arc lying on
//      an active path to a failing output under a failing pattern;
//   2. per suspect i, per pattern j: signature column S_j = E_crt - M_crt
//      via incremental dynamic simulation, then
//   3. phi_j = prod_k [b_kj s_kj + (1-b_kj)(1-s_kj)]  (steps 5-6);
//   4. aggregate phi into one score per error function (step 7 / revised
//      step 7) and rank (step 8 / revised step 8).
//
// Steps 2-4 are score_suspects() (score_kernel.h), the one scoring loop
// the store-backed StoreQueryEngine also runs.  The Diagnoser's column
// source is a SignatureCache: the caller's shared one, or a call-local one
// when DiagnoserConfig::cache is null.  The pattern loop is outermost so
// only one pattern's baseline arrival matrix is alive at a time; all
// methods share one pass (the phi values are method-independent).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/error_fn.h"

namespace sddd::diagnosis {

class SignatureCache;

struct DiagnoserConfig {
  /// Cap on |S|; 0 = unlimited.  When capped, suspects with the highest
  /// support (number of failing (output, pattern) cells whose cone
  /// contains them) are kept, the paper's range being 100-600.
  std::size_t max_suspects = 0;
  /// What phi matches against the observed B column:
  ///   true  (default): the total predicted failure probability E_crt.
  ///   false:           the paper-literal signature S_crt = E_crt - M_crt.
  /// The two are identical in the paper's operating regime ("we can always
  /// make clk large enough so that M_crt = 0", Section E), but when clk
  /// sits where process-slow chips produce baseline failures (M_crt > 0),
  /// matching on S zeroes phi for *every* suspect at each baseline-caused
  /// failing cell and destroys resolution; matching on E attributes those
  /// cells to the baseline instead.  The ablation bench quantifies the
  /// difference.
  bool match_on_total_probability = true;
  /// When set, diagnose() stores the full per-(suspect, pattern) phi
  /// matrix in DiagnosisResult::phi for downstream introspection (the
  /// explanation engine decomposes scores back into these).  Off by
  /// default: the matrix is |S| x |TP| doubles the scoring loop otherwise
  /// never materializes.
  bool capture_phi = false;
  /// Column cache shared across chips (signature_matrix.h): suspect
  /// columns are built once per (circuit, clk, pattern) and reused by every
  /// chip that shares the pattern set.  It must have been built against
  /// the same simulator, clk and match mode; diagnose() throws on a
  /// clk/match mismatch.  Null (default): each diagnose() call scores
  /// through a call-local cache, with bit-identical results.
  const SignatureCache* cache = nullptr;
  /// Ignored: collapse is always on.  Kept only because perfbench sets it.
  bool collapse_unobservable = false;
};

/// One ranked candidate.
struct RankedSuspect {
  netlist::ArcId arc = netlist::kInvalidArc;
  double score = 0.0;
};

/// Scores for every suspect under every requested method, plus the suspect
/// set itself.
struct DiagnosisResult {
  std::vector<netlist::ArcId> suspects;
  std::vector<Method> methods;
  /// scores[m][s]: probability-domain score of suspects[s] under
  /// methods[m] (the paper's formulas; may underflow for Methods I/III on
  /// wide circuits - see ScoreAccumulator).
  std::vector<std::vector<double>> scores;
  /// keys[m][s]: underflow-safe log-domain ranking surrogate; what
  /// ranked() actually sorts by.
  std::vector<std::vector<double>> keys;
  /// phi[s][j]: consistency probability of suspects[s] under pattern j.
  /// Only populated when DiagnoserConfig::capture_phi is set; empty
  /// otherwise.
  std::vector<std::vector<double>> phi;
  /// Monte-Carlo samples behind every dictionary entry the scores were
  /// computed from (the n of every confidence interval downstream).
  std::size_t mc_samples = 0;

  /// Suspects sorted best-first under method m (Algorithm E.1 step 8 /
  /// F.1 revised step 8).
  std::vector<RankedSuspect> ranked(Method m) const;

  /// True when `arc` is among the top-K candidates under method m (the
  /// paper's success criterion; ties are resolved pessimistically: a tied
  /// candidate only counts inside K if it fits after stable ordering).
  bool hit_within(Method m, netlist::ArcId arc, std::size_t k) const;
};

/// Algorithm E.1 step 1's selection, shared by both extraction paths:
/// every arc with nonzero support (the number of failing (output, pattern)
/// cells whose cone contains it), in arc order.  With max_suspects > 0 the
/// best-supported max_suspects arcs are kept (stable, so deterministic).
/// Adds the suspect count to diag.suspects.
std::vector<netlist::ArcId> select_suspects(
    std::span<const std::uint32_t> support, std::size_t max_suspects);

class Diagnoser {
 public:
  /// `sim` must wrap the *dictionary* delay field (the model predictor),
  /// never the instance field the chip was drawn from.
  Diagnoser(const timing::DynamicTimingSimulator& sim,
            const logicsim::BitSimulator& logic_sim,
            const netlist::Levelization& lev,
            const defect::DefectSizeModel& size_model,
            DiagnoserConfig config = {});

  /// Step 1: the suspect set S for the observed behavior.
  std::vector<netlist::ArcId> extract_suspects(
      std::span<const logicsim::PatternPair> patterns,
      const BehaviorMatrix& B) const;

  /// Full diagnosis: returns scores for all requested methods in one pass
  /// over (patterns x suspects).  Throws std::invalid_argument unless B is
  /// |outputs| x |patterns|.
  DiagnosisResult diagnose(std::span<const logicsim::PatternPair> patterns,
                           const BehaviorMatrix& B,
                           std::span<const Method> methods, double clk) const;

 private:
  const timing::DynamicTimingSimulator* sim_;
  const logicsim::BitSimulator* logic_sim_;
  const netlist::Levelization* lev_;
  const defect::DefectSizeModel* size_model_;
  DiagnoserConfig config_;
};

}  // namespace sddd::diagnosis
