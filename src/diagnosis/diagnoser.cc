#include "diagnosis/diagnoser.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>

#include "diagnosis/score_kernel.h"
#include "diagnosis/signature_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sddd::diagnosis {

using netlist::ArcId;

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

std::vector<ArcId> suspects_from_cone_rows(
    std::span<const std::uint64_t* const> rows, std::size_t n_arcs,
    std::size_t max_suspects) {
  const std::size_t words = (n_arcs + 63) / 64;
  // Bits past the last arc are padding: a stored row is file bytes.
  const std::uint64_t last_mask =
      n_arcs % 64 == 0 ? ~0ULL : (std::uint64_t{1} << (n_arcs % 64)) - 1;
  std::vector<std::uint32_t> support(n_arcs, 0);
  for (const std::uint64_t* row : rows) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = w + 1 == words ? row[w] & last_mask : row[w];
      while (bits != 0) {
        ++support[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        bits &= bits - 1;
      }
    }
  }
  std::vector<ArcId> suspects;
  for (ArcId a = 0; a < n_arcs; ++a) {
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
  if (config_.cache != nullptr) {
    return extract_suspects(*config_.cache, patterns, B);
  }
  // Cone rows depend on the pattern alone, so an extraction-only cache
  // needs no clk.
  const SignatureCache local(*sim_, *logic_sim_, *lev_, *size_model_, 0.0,
                             config_.match_on_total_probability);
  return extract_suspects(local, patterns, B);
}

std::vector<ArcId> Diagnoser::extract_suspects(
    const SignatureCache& cache,
    std::span<const logicsim::PatternPair> patterns,
    const BehaviorMatrix& B) const {
  SDDD_SPAN(span, "diag.extract");
  const std::vector<std::size_t> failing = B.failing_patterns();
  span.arg("failing_patterns", static_cast<std::int64_t>(failing.size()));
  const obs::ScopedNsTimer timer(diag_extract_ns_counter());
  std::vector<const std::uint64_t*> rows;
  for (const std::size_t j : failing) {
    for (std::size_t i = 0; i < B.output_count(); ++i) {
      if (B.at(i, j)) rows.push_back(cache.cone_row(patterns[j], i));
    }
  }
  return suspects_from_cone_rows(rows, logic_sim_->netlist().arc_count(),
                                 config_.max_suspects);
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
  result.suspects = extract_suspects(*cache, patterns, B);
  result.mc_samples = sim_->field().sample_count();
  score_suspects(CacheColumns(*cache, patterns), B, config_.capture_phi,
                 result);
  diag_chip_ms_histogram().record(static_cast<double>(obs::now_ns() - t0) *
                                  1e-6);
  return result;
}

std::vector<std::size_t> DiagnosisResult::top(Method m, std::size_t k) const {
  const auto it = std::find(methods.begin(), methods.end(), m);
  if (it == methods.end()) {
    throw std::invalid_argument("DiagnosisResult: method not computed");
  }
  const auto& key = keys[static_cast<std::size_t>(it - methods.begin())];
  std::vector<std::size_t> order(suspects.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  const std::size_t n = k == 0 ? order.size() : std::min(k, order.size());
  // Key first, position second: a total order whose first n entries are
  // the first n of a stable sort by key.
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(n),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (ranks_better(m, key[a], key[b])) return true;
                      if (ranks_better(m, key[b], key[a])) return false;
                      return a < b;
                    });
  order.resize(n);
  return order;
}

std::vector<RankedSuspect> DiagnosisResult::ranked(Method m) const {
  const std::vector<std::size_t> order = top(m, 0);
  const auto& sc =
      scores[static_cast<std::size_t>(
          std::find(methods.begin(), methods.end(), m) - methods.begin())];
  std::vector<RankedSuspect> out(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[i] = RankedSuspect{suspects[order[i]], sc[order[i]]};
  }
  return out;
}

bool DiagnosisResult::hit_within(Method m, ArcId arc, std::size_t k) const {
  const std::vector<std::size_t> best = top(m, k);
  if (k == 0) return false;  // top() reads k = 0 as "all"
  for (const std::size_t s : best) {
    if (suspects[s] == arc) return true;
  }
  return false;
}

}  // namespace sddd::diagnosis
