#include "diagnosis/error_fn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/check.h"
#include "obs/metrics.h"

namespace sddd::diagnosis {

namespace {

obs::Counter& phi_evals_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.phi_evals");
  return c;
}

}  // namespace

std::string_view method_name(Method m) {
  switch (m) {
    case Method::kSimI:
      return "Alg_sim-I";
    case Method::kSimII:
      return "Alg_sim-II";
    case Method::kSimIII:
      return "Alg_sim-III";
    case Method::kRev:
      return "Alg_rev";
  }
  return "?";
}

void note_phi_evals(std::size_t n) {
  phi_evals_counter().add(static_cast<std::uint64_t>(n));
}

double phi(std::span<const double> s_column,
           const std::vector<bool>& b_column) {
  if (s_column.size() != b_column.size()) {
    throw std::invalid_argument("phi: column size mismatch");
  }
  // Runtime contract: phi matches probabilities, so an out-of-range entry
  // means the signature fed to diagnosis scoring is corrupt.
  obs::check_probability_column(s_column, "phi signature match");
  phi_evals_counter().add(1);
  double acc = 1.0;
  for (std::size_t k = 0; k < s_column.size(); ++k) {
    const double s = s_column[k];
    acc *= b_column[k] ? s : (1.0 - s);
  }
  return acc;
}

namespace {

class SimI final : public DiagnosisErrorFn {
 public:
  double score(std::span<const double> phis) const override {
    double prod_not = 1.0;
    for (const double p : phis) prod_not *= (1.0 - p);
    return 1.0 - prod_not;
  }
  bool higher_is_better() const override { return true; }
  std::string_view name() const override { return method_name(Method::kSimI); }
};

class SimII final : public DiagnosisErrorFn {
 public:
  double score(std::span<const double> phis) const override {
    if (phis.empty()) return 0.0;
    double sum = 0.0;
    for (const double p : phis) sum += p;
    return sum / static_cast<double>(phis.size());
  }
  bool higher_is_better() const override { return true; }
  std::string_view name() const override { return method_name(Method::kSimII); }
};

class SimIII final : public DiagnosisErrorFn {
 public:
  double score(std::span<const double> phis) const override {
    double prod = 1.0;
    for (const double p : phis) prod *= p;
    return prod;
  }
  bool higher_is_better() const override { return true; }
  std::string_view name() const override {
    return method_name(Method::kSimIII);
  }
};

class Rev final : public DiagnosisErrorFn {
 public:
  double score(std::span<const double> phis) const override {
    double acc = 0.0;
    for (const double p : phis) acc += (1.0 - p) * (1.0 - p);
    return acc;
  }
  bool higher_is_better() const override { return false; }
  std::string_view name() const override { return method_name(Method::kRev); }
};

}  // namespace

std::unique_ptr<DiagnosisErrorFn> make_error_fn(Method m) {
  switch (m) {
    case Method::kSimI:
      return std::make_unique<SimI>();
    case Method::kSimII:
      return std::make_unique<SimII>();
    case Method::kSimIII:
      return std::make_unique<SimIII>();
    case Method::kRev:
      return std::make_unique<Rev>();
  }
  throw std::invalid_argument("make_error_fn: unknown method");
}

ScoreAccumulator::ScoreAccumulator(Method m) : method_(m) {}

namespace {
// Floor keeping log() finite; ~log(min subnormal) would do as well.
constexpr double kLogFloor = 1e-300;
}  // namespace

// Out of line on purpose: the terms reach every caller as stored doubles,
// so no caller's compiler can fuse a term into its sum differently.
PhiTerms PhiTerms::of(double phi) {
  PhiTerms t;
  t.phi = phi;
  t.sq = (1.0 - phi) * (1.0 - phi);
  t.log1m = std::log1p(-std::min(phi, 1.0 - 1e-16));
  t.logphi = std::log(std::max(phi, kLogFloor));
  return t;
}

double PhiSums::finish(Method m, std::size_t n_patterns) const {
  switch (m) {
    case Method::kSimI:
      return 1.0 - std::exp(log1m_sum);
    case Method::kSimII:
      return n_patterns == 0 ? 0.0 : sum / static_cast<double>(n_patterns);
    case Method::kSimIII:
      return std::exp(logphi_sum);
    case Method::kRev:
      return sq_sum;
  }
  return 0.0;
}

double PhiSums::ranking_key(Method m, std::size_t n_patterns) const {
  switch (m) {
    case Method::kSimI:
      // Maximizing 1 - prod(1 - phi) == minimizing sum log(1 - phi).
      return -log1m_sum;
    case Method::kSimII:
      return n_patterns == 0 ? 0.0 : sum / static_cast<double>(n_patterns);
    case Method::kSimIII:
      // Maximizing prod phi == maximizing sum log phi (floored, so k
      // zero-phi patterns cost k * log(floor) - strictly worse than any
      // suspect with fewer zeros).
      return logphi_sum;
    case Method::kRev:
      return sq_sum;
  }
  return 0.0;
}

bool ranks_better(Method m, double a, double b) {
  return m == Method::kRev ? a < b : a > b;
}

}  // namespace sddd::diagnosis
