#include "diagnosis/diagnoser.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "diagnosis/score_kernel.h"
#include "diagnosis/signature_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paths/path_enum.h"

namespace sddd::diagnosis {

using netlist::ArcId;
using netlist::GateId;

namespace {

// CPU ns in suspect extraction (counters sum across threads); the
// scoring loop's own split is diag.score_ns and diag.kernel.*.
obs::Counter& diag_extract_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.extract_ns");
  return c;
}

obs::Counter& diag_suspects_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.suspects");
  return c;
}

// Per-diagnosis wall latency shape (one sample per diagnosed chip); the
// p50/p95/p99 summaries land in the metrics JSON.  Wall-clock valued, so
// not part of any byte-identity contract.
obs::Histogram& diag_chip_ms_histogram() {
  static constexpr double kBoundsMs[] = {0.25, 0.5, 1,    2.5,  5,    10,
                                         25,   50,  100,  250,  500,  1000,
                                         2500, 5000};
  static obs::Histogram& h = obs::MetricsRegistry::instance()
                                 .register_histogram("diag.chip_ms",
                                                     kBoundsMs);
  return h;
}

/// The Diagnoser's column source: the cache, keyed by the chip's patterns.
class CacheColumns final : public ColumnSource {
 public:
  CacheColumns(const SignatureCache& cache,
               std::span<const logicsim::PatternPair> patterns)
      : cache_(&cache), patterns_(patterns) {}

  const double* columns(std::size_t j, std::span<const ArcId> suspects,
                        std::vector<const double*>& out) const override {
    return cache_->columns(patterns_[j], suspects, out);
  }

 private:
  const SignatureCache* cache_;
  std::span<const logicsim::PatternPair> patterns_;
};

}  // namespace

std::vector<ArcId> select_suspects(std::span<const std::uint32_t> support,
                                   std::size_t max_suspects) {
  std::vector<ArcId> suspects;
  for (ArcId a = 0; a < support.size(); ++a) {
    if (support[a] > 0) suspects.push_back(a);
  }
  if (max_suspects > 0 && suspects.size() > max_suspects) {
    std::stable_sort(suspects.begin(), suspects.end(),
                     [&](ArcId a, ArcId b) { return support[a] > support[b]; });
    suspects.resize(max_suspects);
    std::sort(suspects.begin(), suspects.end());
  }
  diag_suspects_counter().add(suspects.size());
  return suspects;
}

Diagnoser::Diagnoser(const timing::DynamicTimingSimulator& sim,
                     const logicsim::BitSimulator& logic_sim,
                     const netlist::Levelization& lev,
                     const defect::DefectSizeModel& size_model,
                     DiagnoserConfig config)
    : sim_(&sim),
      logic_sim_(&logic_sim),
      lev_(&lev),
      size_model_(&size_model),
      config_(config) {}

std::vector<ArcId> Diagnoser::extract_suspects(
    std::span<const logicsim::PatternPair> patterns,
    const BehaviorMatrix& B) const {
  SDDD_SPAN(span, "diag.extract");
  span.arg("failing_patterns",
           static_cast<std::int64_t>(B.failing_patterns().size()));
  const obs::ScopedNsTimer timer(diag_extract_ns_counter());
  const auto& nl = logic_sim_->netlist();
  std::vector<std::uint32_t> support(nl.arc_count(), 0);
  for (const std::size_t j : B.failing_patterns()) {
    const paths::TransitionGraph tg(*logic_sim_, *lev_, patterns[j]);
    for (const GateId o : B.failing_output_gates(nl, j)) {
      const auto cone = tg.cone_to_output(o);
      for (ArcId a = 0; a < nl.arc_count(); ++a) {
        if (cone[a]) ++support[a];
      }
    }
  }
  return select_suspects(support, config_.max_suspects);
}

DiagnosisResult Diagnoser::diagnose(
    std::span<const logicsim::PatternPair> patterns, const BehaviorMatrix& B,
    std::span<const Method> methods, double clk) const {
  const std::size_t n_outputs = logic_sim_->netlist().outputs().size();
  if (B.output_count() != n_outputs || B.pattern_count() != patterns.size()) {
    throw std::invalid_argument(
        "Diagnoser: behavior matrix is " + std::to_string(B.output_count()) +
        "x" + std::to_string(B.pattern_count()) + ", expected " +
        std::to_string(n_outputs) + "x" + std::to_string(patterns.size()));
  }
  std::optional<SignatureCache> local_cache;
  const SignatureCache* cache = config_.cache;
  if (cache == nullptr) {
    cache = &local_cache.emplace(*sim_, *logic_sim_, *lev_, *size_model_, clk,
                                 config_.match_on_total_probability);
  } else if (cache->clk() != clk) {
    throw std::invalid_argument(
        "Diagnoser: signature cache built for a different clk");
  } else if (cache->match_on_total_probability() !=
             config_.match_on_total_probability) {
    throw std::invalid_argument(
        "Diagnoser: signature cache built for a different match mode");
  }

  const std::uint64_t t0 = obs::now_ns();
  DiagnosisResult result;
  result.methods.assign(methods.begin(), methods.end());
  result.suspects = extract_suspects(patterns, B);
  result.mc_samples = sim_->field().sample_count();
  score_suspects(CacheColumns(*cache, patterns), B, config_.capture_phi,
                 result);
  diag_chip_ms_histogram().record(static_cast<double>(obs::now_ns() - t0) *
                                  1e-6);
  return result;
}

std::vector<RankedSuspect> DiagnosisResult::ranked(Method m) const {
  const auto it = std::find(methods.begin(), methods.end(), m);
  if (it == methods.end()) {
    throw std::invalid_argument("DiagnosisResult: method not computed");
  }
  const auto mi = static_cast<std::size_t>(it - methods.begin());
  const auto& sc = scores[mi];
  const auto& key = keys[mi];
  std::vector<std::size_t> order(suspects.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ranks_better(m, key[a], key[b]);
                   });
  std::vector<RankedSuspect> out(suspects.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[i] = RankedSuspect{suspects[order[i]], sc[order[i]]};
  }
  return out;
}

bool DiagnosisResult::hit_within(Method m, ArcId arc, std::size_t k) const {
  const auto r = ranked(m);
  const std::size_t limit = std::min(k, r.size());
  for (std::size_t i = 0; i < limit; ++i) {
    if (r[i].arc == arc) return true;
  }
  return false;
}

}  // namespace sddd::diagnosis
