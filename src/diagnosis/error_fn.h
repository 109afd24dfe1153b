// error_fn.h - Diagnosis error functions (Sections E step 7 and F).
//
// Each function turns the per-pattern consistency probabilities phi_j into
// one score per suspect, and defines whether larger or smaller is better:
//
//   phi_j = prod_k [ b_kj * s_kj + (1 - b_kj) * (1 - s_kj) ]       (steps 5-6)
//
//   Method I    score = 1 - prod_j (1 - phi_j)     maximize
//   Method II   score = (sum_j phi_j) / |TP|       maximize
//   Method III  score = prod_j phi_j               maximize (degenerate:
//               collapses to ~0 whenever any pattern mismatches - the
//               paper's Section I observation)
//   Alg_rev     score = sum_j (1 - phi_j)^2        minimize (Euclidean
//               distance to the all-match ideal, eq. (5))
//
// The interface is open: users add error functions (the paper's future
// work #5) by implementing DiagnosisErrorFn.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace sddd::diagnosis {

/// The four built-in functions, in the paper's naming.
enum class Method {
  kSimI,
  kSimII,
  kSimIII,
  kRev,
};

std::string_view method_name(Method m);

/// Computes phi_j for one pattern: the probability that the suspect's
/// signature column reproduces the observed column of B (Algorithm E.1
/// steps 5-6).  `b_column[k]` is the observed fail bit of output k;
/// `s_column[k]` the signature probability.
double phi(std::span<const double> s_column,
           const std::vector<bool>& b_column);

/// Batched form of the diag.phi_evals accounting phi() performs per call.
/// The packed multi-suspect kernel (score_kernel.h) evaluates a whole
/// suspect set per pattern and accounts for all of them with one counter
/// update instead of |S| atomic adds in the inner loop.
void note_phi_evals(std::size_t n);

/// Strategy interface for scoring a suspect from its per-pattern phi
/// values.  Implementations must be stateless and cheap to copy.
class DiagnosisErrorFn {
 public:
  virtual ~DiagnosisErrorFn() = default;

  /// Aggregates phi_1..phi_|TP| into one score.
  virtual double score(std::span<const double> phis) const = 0;

  /// True when a larger score means a more probable suspect.
  virtual bool higher_is_better() const = 0;

  virtual std::string_view name() const = 0;
};

/// Factory for the built-in functions.
std::unique_ptr<DiagnosisErrorFn> make_error_fn(Method m);

/// What one phi value contributes to a suspect's sums, for every method
/// at once: the terms depend on phi alone, so the scoring loop computes
/// them once per distinct column and every suspect holding that column
/// adds the same four doubles.
struct PhiTerms {
  double phi = 0.0;     ///< phi                          (Method II)
  double sq = 0.0;      ///< (1 - phi)^2                  (Alg_rev)
  double log1m = 0.0;   ///< log1p(-min(phi, 1 - 1e-16))  (Method I)
  double logphi = 0.0;  ///< log(max(phi, 1e-300))        (Method III)

  static PhiTerms of(double phi);
};

/// One suspect's method-free sums over its patterns' PhiTerms, added in
/// pattern order; every method's score and ranking key is read from them.
///
/// phi values are products over all primary outputs and can be far below
/// double's representable range once |O| is large; the products in Methods
/// I and III then underflow (e.g. 1 - prod(1 - phi) evaluates to exactly 0
/// for EVERY suspect, collapsing the ranking to declaration order).  The
/// sums therefore also track log-domain statistics and expose an
/// order-equivalent, underflow-safe ranking_key(); finish() still reports
/// the probability-domain score of the paper's formulas.
struct PhiSums {
  double sum = 0.0;         ///< sum phi
  double sq_sum = 0.0;      ///< sum (1 - phi)^2
  double log1m_sum = 0.0;   ///< sum log(1 - phi)
  double logphi_sum = 0.0;  ///< sum log(max(phi, 1e-300))

  void add(const PhiTerms& t) {
    sum += t.phi;
    sq_sum += t.sq;
    log1m_sum += t.log1m;
    logphi_sum += t.logphi;
  }

  /// The paper's probability-domain score under `m` (may underflow for
  /// I/III).
  double finish(Method m, std::size_t n_patterns) const;

  /// Monotone surrogate of finish() computed in log space; always finite
  /// and strictly order-preserving.  Direction matches the method
  /// (ranks_better).
  double ranking_key(Method m, std::size_t n_patterns) const;
};

/// Applies one method incrementally: PhiSums bound to a method, for
/// callers that score phi by phi (the reference scorers, the explanation
/// engine's score bounds).  Its results equal the scoring loop's bit for
/// bit: both add PhiTerms::of(phi) in pattern order.
class ScoreAccumulator {
 public:
  explicit ScoreAccumulator(Method m);

  void add_phi(double phi_j) { sums_.add(PhiTerms::of(phi_j)); }

  /// The paper's probability-domain score (may underflow for I/III).
  double finish(std::size_t n_patterns) const {
    return sums_.finish(method_, n_patterns);
  }

  /// See PhiSums::ranking_key.
  double ranking_key(std::size_t n_patterns) const {
    return sums_.ranking_key(method_, n_patterns);
  }

  Method method() const { return method_; }

 private:
  Method method_;
  PhiSums sums_;
};

/// True when `a` ranks strictly better than `b` under method `m` (applies
/// to both finish() scores and ranking_key() values - the direction is the
/// same).
bool ranks_better(Method m, double a, double b);

}  // namespace sddd::diagnosis
