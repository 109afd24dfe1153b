#include "diagnosis/dictionary.h"

#include <algorithm>

#include "obs/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace sddd::diagnosis {

namespace {

// Dictionary construction accounting.  dict.columns_built counts every
// column landed in the dictionary (M on slice build, E per suspect);
// dict.build_ns / dict.e_ns split the CPU time between the two.
obs::Counter& dict_slices_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.slices");
  return c;
}

obs::Counter& dict_columns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.columns_built");
  return c;
}

obs::Counter& dict_e_columns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.e_columns");
  return c;
}

obs::Counter& dict_build_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.build_ns");
  return c;
}

obs::Counter& dict_e_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.e_ns");
  return c;
}

}  // namespace

PatternSlice::PatternSlice(const timing::DynamicTimingSimulator& sim,
                           const logicsim::BitSimulator& logic_sim,
                           const netlist::Levelization& lev,
                           const logicsim::PatternPair& pattern, double clk)
    : sim_(&sim), tg_(logic_sim, lev, pattern), clk_(clk) {
  SDDD_SPAN(span, "dict.slice");
  const obs::ScopedNsTimer timer(dict_build_ns_counter());
  baseline_ = sim.simulate(tg_);
  m_col_ = sim.error_vector(tg_, baseline_, clk);
  obs::check_probability_column(m_col_, "PatternSlice M_crt column");
  dict_slices_counter().add(1);
  dict_columns_counter().add(1);
}

std::vector<double> PatternSlice::e_column(
    netlist::ArcId suspect, const defect::DefectSizeModel& size_model) const {
  // sample(arc, k) is a pure function of (arc, k), so resampling here per
  // call draws the exact sizes a precomputed table holds; callers that
  // loop over (pattern, suspect) precompute once and use e_column_into.
  const std::size_t n = sim_->field().sample_count();
  std::vector<double> sizes(n);
  for (std::size_t k = 0; k < n; ++k) {
    sizes[k] = size_model.sample(suspect, k);
  }
  std::vector<double> e;
  e_column_into(suspect, sizes, e);
  return e;
}

void PatternSlice::e_column_into(netlist::ArcId suspect,
                                 std::span<const double> sizes,
                                 std::vector<double>& out) const {
  const obs::ScopedNsTimer timer(dict_e_ns_counter());
  dict_e_columns_counter().add(1);
  dict_columns_counter().add(1);
  sim_->error_vector_with_defect_into(tg_, baseline_, suspect, sizes, clk_,
                                      out);
  obs::check_probability_column(out, "PatternSlice E_crt column");
}

std::vector<double> PatternSlice::signature_column(
    netlist::ArcId suspect, const defect::DefectSizeModel& size_model) const {
  std::vector<double> s = e_column(suspect, size_model);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = std::max(s[i] - m_col_[i], 0.0);
  }
  obs::check_signature_column(s, "PatternSlice S_crt column");
  return s;
}

void PatternSlice::signature_column_into(netlist::ArcId suspect,
                                         std::span<const double> sizes,
                                         std::vector<double>& out) const {
  e_column_into(suspect, sizes, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::max(out[i] - m_col_[i], 0.0);
  }
  obs::check_signature_column(out, "PatternSlice S_crt column");
}

FaultDictionary::FaultDictionary(
    const timing::DynamicTimingSimulator& sim,
    const logicsim::BitSimulator& logic_sim, const netlist::Levelization& lev,
    std::span<const logicsim::PatternPair> patterns, double clk) {
  SDDD_SPAN(span, "dict.build");
  span.arg("patterns", static_cast<std::int64_t>(patterns.size()));
  // Patterns are independent given read-only shared inputs; the simulator
  // only needs its lazy delay memoization pre-materialized before the
  // slices fan out.  Each slice writes its own pre-reserved slot, so the
  // dictionary is bit-identical for every thread count.
  if (runtime::would_parallelize(patterns.size())) sim.prewarm();
  slices_.resize(patterns.size());
  runtime::parallel_for(patterns.size(), [&](std::size_t j) {
    slices_[j] =
        std::make_unique<PatternSlice>(sim, logic_sim, lev, patterns[j], clk);
  });
}

std::vector<std::vector<double>> FaultDictionary::m_matrix() const {
  if (slices_.empty()) return {};
  const std::size_t n_out = slices_.front()->m_column().size();
  std::vector<std::vector<double>> m(n_out,
                                     std::vector<double>(slices_.size(), 0.0));
  for (std::size_t j = 0; j < slices_.size(); ++j) {
    const auto& col = slices_[j]->m_column();
    for (std::size_t i = 0; i < n_out; ++i) m[i][j] = col[i];
  }
  return m;
}

std::vector<std::vector<double>> FaultDictionary::e_matrix(
    netlist::ArcId suspect, const defect::DefectSizeModel& size_model) const {
  if (slices_.empty()) return {};
  const std::size_t n_out = slices_.front()->m_column().size();
  std::vector<std::vector<double>> e(n_out,
                                     std::vector<double>(slices_.size(), 0.0));
  // Column j only writes element j of each row: disjoint slots, so the
  // per-pattern E columns evaluate concurrently.  Slice construction
  // already materialized every arc delay these cones read.
  runtime::parallel_for(slices_.size(), [&](std::size_t j) {
    const auto col = slices_[j]->e_column(suspect, size_model);
    for (std::size_t i = 0; i < n_out; ++i) e[i][j] = col[i];
  });
  return e;
}

}  // namespace sddd::diagnosis
