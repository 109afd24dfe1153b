#include "timing/dynamic_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/error.h"
#include "obs/faults.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cancel.h"
#include "runtime/parallel_for.h"

namespace sddd::timing {

using netlist::ArcId;
using netlist::GateId;
using netlist::Netlist;
using paths::ArrivalRule;
using paths::TransitionGraph;

namespace {

// Monte-Carlo accounting: mc.samples counts circuit-instance evaluations
// (one per statistical sample actually propagated), mc.delay_rows counts
// memoized arc-delay rows.
obs::Counter& mc_samples_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("mc.samples");
  return c;
}

obs::Counter& mc_delay_rows_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("mc.delay_rows");
  return c;
}

}  // namespace

DynamicTimingSimulator::DynamicTimingSimulator(
    const DelayField& field, const netlist::Levelization& lev)
    : field_(&field), lev_(&lev) {
  delay_cache_.resize(field.model().netlist().arc_count());
}

void DynamicTimingSimulator::materialize_row(ArcId a) const {
  auto& row = delay_cache_[a];
  const std::size_t n = field_->sample_count();
  row.resize(n);
  for (std::size_t k = 0; k < n; ++k) row[k] = field_->delay(a, k);
  // Fault seam mc.nan_row (keyed by arc id): poisons one sample so the
  // validation below - and the quarantine layer above - can be tested.
  if (obs::fault_at("mc.nan_row", a)) {
    row[n / 2] = std::numeric_limits<double>::quiet_NaN();
  }
  // A non-finite delay sample would silently poison every arrival (and
  // therefore every dictionary column) downstream of this arc; surface it
  // here, once, as a typed numeric error the trial quarantine can record.
  for (std::size_t k = 0; k < n; ++k) {
    if (!std::isfinite(row[k])) {
      row.clear();
      throw NumericError("non-finite delay sample for arc " +
                         std::to_string(a) + " at sample " +
                         std::to_string(k));
    }
  }
  mc_delay_rows_counter().add(1);
}

const std::vector<double>& DynamicTimingSimulator::arc_delays(ArcId a) const {
  auto& row = delay_cache_[a];
  if (row.empty() && field_->sample_count() != 0) {
    if (runtime::in_parallel_region()) {
      throw std::logic_error(
          "DynamicTimingSimulator::arc_delays: lazy delay memoization is "
          "not thread-safe; call prewarm() before sharing the simulator "
          "across a parallel region");
    }
    materialize_row(a);
  }
  return row;
}

void DynamicTimingSimulator::prewarm() const {
  if (prewarmed()) return;
  SDDD_SPAN(span, "mc.prewarm");
  span.arg("arcs", static_cast<std::int64_t>(delay_cache_.size()))
      .arg("samples", static_cast<std::int64_t>(field_->sample_count()));
  // Each arc fills only its own row, so the fill itself parallelizes
  // safely (and degrades to the serial loop inside nested regions).
  runtime::parallel_for(delay_cache_.size(), [this](std::size_t a) {
    if (delay_cache_[a].empty()) {
      materialize_row(static_cast<ArcId>(a));
    }
  });
  prewarmed_.store(true, std::memory_order_release);
}

namespace {

/// Computes one gate's arrival row from its active fanins.  `lookup` maps a
/// gate id to its arrival row (baseline or scratch); `delays` maps an arc
/// id to its memoized delay samples.  A defect is (defect_arc, per-sample
/// extras); pass defect_extra == nullptr for the defect-free case.
template <typename Lookup, typename Delays>
void compute_row(const Netlist& nl, std::size_t n, const TransitionGraph& tg,
                 GateId g, const Lookup& lookup, const Delays& delays,
                 ArcId defect_arc, const double* defect_extra,
                 std::vector<double>& out) {
  const auto& act = tg.active_fanins(g);
  const bool use_min = tg.rule(g) == ArrivalRule::kMinOverActive;
  out.assign(n, use_min ? std::numeric_limits<double>::infinity() : 0.0);
  for (const ArcId a : act) {
    const auto& arc = nl.arc(a);
    const GateId f = nl.gate(arc.gate).fanins[arc.pin];
    const std::vector<double>& in = lookup(f);
    const std::vector<double>& d = delays(a);
    const bool defective = defect_extra != nullptr && defect_arc == a;
    if (use_min) {
      if (defective) {
        for (std::size_t k = 0; k < n; ++k) {
          const double cand = in[k] + d[k] + defect_extra[k];
          if (cand < out[k]) out[k] = cand;
        }
      } else {
        for (std::size_t k = 0; k < n; ++k) {
          const double cand = in[k] + d[k];
          if (cand < out[k]) out[k] = cand;
        }
      }
    } else {
      if (defective) {
        for (std::size_t k = 0; k < n; ++k) {
          const double cand = in[k] + d[k] + defect_extra[k];
          if (cand > out[k]) out[k] = cand;
        }
      } else {
        for (std::size_t k = 0; k < n; ++k) {
          const double cand = in[k] + d[k];
          if (cand > out[k]) out[k] = cand;
        }
      }
    }
  }
}

}  // namespace

ArrivalMatrix DynamicTimingSimulator::simulate(const TransitionGraph& tg) const {
  // Cooperative cancellation: one poll per pattern-level simulation keeps
  // deadline latency bounded by a single induced-circuit sweep without
  // touching the per-gate hot loop.
  runtime::poll_cancellation();
  const Netlist& nl = field_->model().netlist();
  const std::size_t n = field_->sample_count();
  mc_samples_counter().add(n);
  ArrivalMatrix m;
  m.rows.assign(nl.gate_count(), {});
  const auto lookup = [&](GateId f) -> const std::vector<double>& {
    return m.rows[f];
  };
  const auto delays = [&](ArcId a) -> const std::vector<double>& {
    return arc_delays(a);
  };
  for (const GateId g : lev_->topo_order()) {
    if (!tg.toggles(g)) continue;
    if (!is_combinational(nl.gate(g).type)) {
      // A toggling PI launches its transition at time 0.
      m.rows[g].assign(n, 0.0);
      continue;
    }
    compute_row(nl, n, tg, g, lookup, delays, netlist::kInvalidArc, nullptr,
                m.rows[g]);
  }
  return m;
}

std::vector<double> DynamicTimingSimulator::error_vector(
    const TransitionGraph& tg, const ArrivalMatrix& arrivals,
    double clk) const {
  std::vector<double> err;
  error_vector_into(tg, arrivals, clk, err);
  return err;
}

void DynamicTimingSimulator::error_vector_into(const TransitionGraph& tg,
                                               const ArrivalMatrix& arrivals,
                                               double clk,
                                               std::vector<double>& out) const {
  const Netlist& nl = field_->model().netlist();
  const std::size_t n = field_->sample_count();
  out.clear();
  out.reserve(nl.outputs().size());
  for (const GateId o : nl.outputs()) {
    if (!tg.toggles(o) || arrivals.rows[o].empty()) {
      out.push_back(0.0);
      continue;
    }
    std::size_t count = 0;
    for (const double x : arrivals.rows[o]) count += (x > clk) ? 1U : 0U;
    out.push_back(static_cast<double>(count) / static_cast<double>(n));
  }
}

DynamicTimingSimulator::ConeRows DynamicTimingSimulator::recompute_cone(
    const TransitionGraph& tg, const ArrivalMatrix& baseline, ArcId arc,
    std::span<const double> extra) const {
  const Netlist& nl = field_->model().netlist();
  const std::size_t n = field_->sample_count();
  if (extra.size() != n) {
    throw std::invalid_argument(
        "recompute_cone: defect extra-delay size mismatch");
  }
  // The per-(suspect, pattern) dictionary hot path: this is where a
  // mid-trial deadline is actually noticed.
  runtime::poll_cancellation();
  mc_samples_counter().add(n);
  const GateId defect_gate = nl.arc(arc).gate;
  const auto cone = tg.forward_cone(defect_gate);

  // Scratch rows for cone gates only; everything upstream/off-cone reads
  // from the baseline.
  ConeRows rows;
  rows.scratch.resize(cone.size());
  rows.cone_index.assign(nl.gate_count(), -1);
  for (std::size_t i = 0; i < cone.size(); ++i) {
    rows.cone_index[cone[i]] = static_cast<std::int32_t>(i);
  }
  const auto lookup = [&](GateId f) -> const std::vector<double>& {
    const std::int32_t idx = rows.cone_index[f];
    return idx >= 0 ? rows.scratch[static_cast<std::size_t>(idx)]
                    : baseline.rows[f];
  };
  const auto delays = [&](ArcId a) -> const std::vector<double>& {
    return arc_delays(a);
  };
  for (std::size_t i = 0; i < cone.size(); ++i) {
    compute_row(nl, n, tg, cone[i], lookup, delays, arc, extra.data(),
                rows.scratch[i]);
  }
  return rows;
}

std::vector<double> DynamicTimingSimulator::error_vector_with_defect(
    const TransitionGraph& tg, const ArrivalMatrix& baseline,
    const InjectedDefect& defect, double clk) const {
  std::vector<double> err;
  error_vector_with_defect_into(tg, baseline, defect.arc, defect.extra, clk,
                                err);
  return err;
}

void DynamicTimingSimulator::error_vector_with_defect_into(
    const TransitionGraph& tg, const ArrivalMatrix& baseline, ArcId arc,
    std::span<const double> extra, double clk, std::vector<double>& out) const {
  const Netlist& nl = field_->model().netlist();
  const std::size_t n = field_->sample_count();
  if (!tg.is_active(arc)) {
    // No transition flows through the defective pin under this pattern:
    // the induced circuit is unchanged (fixed-sensitization semantics).
    if (extra.size() != n) {
      throw std::invalid_argument(
          "error_vector_with_defect: defect extra-delay size mismatch");
    }
    error_vector_into(tg, baseline, clk, out);
    return;
  }
  const ConeRows rows = recompute_cone(tg, baseline, arc, extra);

  out.clear();
  out.reserve(nl.outputs().size());
  for (const GateId o : nl.outputs()) {
    const std::int32_t idx = rows.cone_index[o];
    const std::vector<double>* row =
        idx >= 0 ? &rows.scratch[static_cast<std::size_t>(idx)]
                 : &baseline.rows[o];
    if (!tg.toggles(o) || row->empty()) {
      out.push_back(0.0);
      continue;
    }
    std::size_t count = 0;
    for (const double x : *row) count += (x > clk) ? 1U : 0U;
    out.push_back(static_cast<double>(count) / static_cast<double>(n));
  }
}

std::vector<std::uint8_t> DynamicTimingSimulator::late_mask(
    const TransitionGraph& tg, const ArrivalMatrix& arrivals,
    double clk) const {
  const Netlist& nl = field_->model().netlist();
  std::vector<std::uint8_t> mask(field_->sample_count(), 0);
  for (const GateId o : nl.outputs()) {
    if (!tg.toggles(o) || arrivals.rows[o].empty()) continue;
    const auto& row = arrivals.rows[o];
    for (std::size_t k = 0; k < mask.size(); ++k) {
      mask[k] |= (row[k] > clk) ? 1U : 0U;
    }
  }
  return mask;
}

std::vector<std::uint8_t> DynamicTimingSimulator::late_mask_with_defect(
    const TransitionGraph& tg, const ArrivalMatrix& baseline,
    const InjectedDefect& defect, double clk) const {
  const Netlist& nl = field_->model().netlist();
  const std::size_t n = field_->sample_count();
  if (!tg.is_active(defect.arc)) {
    if (defect.extra.size() != n) {
      throw std::invalid_argument(
          "late_mask_with_defect: defect extra-delay size mismatch");
    }
    return late_mask(tg, baseline, clk);
  }
  const ConeRows rows = recompute_cone(tg, baseline, defect.arc, defect.extra);
  std::vector<std::uint8_t> mask(n, 0);
  for (const GateId o : nl.outputs()) {
    if (!tg.toggles(o)) continue;
    const std::int32_t idx = rows.cone_index[o];
    const std::vector<double>& row =
        idx >= 0 ? rows.scratch[static_cast<std::size_t>(idx)]
                 : baseline.rows[o];
    if (row.empty()) continue;
    for (std::size_t k = 0; k < n; ++k) {
      mask[k] |= (row[k] > clk) ? 1U : 0U;
    }
  }
  return mask;
}

std::vector<double> DynamicTimingSimulator::simulate_instance(
    const TransitionGraph& tg, std::size_t k,
    std::optional<std::pair<ArcId, double>> defect) const {
  if (defect) {
    const std::pair<ArcId, double> one[] = {*defect};
    return simulate_instance_multi(tg, k, one);
  }
  return simulate_instance_multi(tg, k, {});
}

std::vector<double> DynamicTimingSimulator::simulate_instance_multi(
    const TransitionGraph& tg, std::size_t k,
    std::span<const std::pair<ArcId, double>> defects) const {
  const Netlist& nl = field_->model().netlist();
  if (k >= field_->sample_count()) {
    throw std::invalid_argument("simulate_instance: sample index out of range");
  }
  mc_samples_counter().add(1);
  std::vector<double> arr(nl.gate_count(), -1.0);
  const auto extra_on = [&](ArcId a) {
    double extra = 0.0;
    for (const auto& [site, delta] : defects) {
      if (site == a) extra += delta;
    }
    return extra;
  };
  for (const GateId g : lev_->topo_order()) {
    if (!tg.toggles(g)) continue;
    if (!is_combinational(nl.gate(g).type)) {
      arr[g] = 0.0;
      continue;
    }
    const auto& act = tg.active_fanins(g);
    const bool use_min = tg.rule(g) == ArrivalRule::kMinOverActive;
    double best = use_min ? std::numeric_limits<double>::infinity() : 0.0;
    for (const ArcId a : act) {
      const auto& arc = nl.arc(a);
      const GateId f = nl.gate(arc.gate).fanins[arc.pin];
      double cand = arr[f] + field_->delay(a, k);
      if (!defects.empty()) cand += extra_on(a);
      if (use_min ? (cand < best) : (cand > best)) best = cand;
    }
    arr[g] = best;
  }
  return arr;
}

namespace {

/// The nominal-arrival recurrence over one pattern's activity, read
/// through TransitionGraph's accessors (toggles, rule, is_active).  A
/// toggling gate takes the MIN (from +inf) or the MAX (from 0) of
/// arr[fanin] + mean over its active arcs.  Which gates toggle differs
/// from pattern to pattern, so the toggling gates are first compacted into
/// a list in topological order (every gate is written, only a toggling one
/// advances the list), and only they are folded.  Both folds run over
/// every pin, an inactive arc contributing the fold's identity, and the
/// rule picks one afterwards: a branch per arc would mispredict about as
/// often as it is taken.
template <typename Activity>
std::vector<double> nominal_recurrence(const Activity& act,
                                       const ArcDelayModel& model,
                                       const netlist::Levelization& lev) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Netlist& nl = model.netlist();
  std::vector<double> arr(nl.gate_count(), -1.0);
  const std::vector<GateId>& topo = lev.topo_order();
  std::vector<GateId> toggling(topo.size());
  std::size_t n_toggling = 0;
  for (const GateId g : topo) {
    toggling[n_toggling] = g;
    n_toggling += act.toggles(g) ? 1U : 0U;
  }
  for (std::size_t k = 0; k < n_toggling; ++k) {
    const GateId g = toggling[k];
    const netlist::Gate& gate = nl.gate(g);
    if (!is_combinational(gate.type)) {
      arr[g] = 0.0;
      continue;
    }
    double lo = kInf;
    double hi = 0.0;
    const ArcId base = nl.arc_base(g);
    for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
      const bool active = act.is_active(base + pin);
      const double cand = arr[gate.fanins[pin]] + model.mean(base + pin);
      lo = std::min(lo, active ? cand : kInf);
      hi = std::max(hi, active ? cand : 0.0);
    }
    const bool use_min = act.rule(g) == ArrivalRule::kMinOverActive;
    arr[g] = use_min ? lo : hi;
  }
  return arr;
}

}  // namespace

std::vector<double> nominal_arrivals(const TransitionGraph& tg,
                                     const ArcDelayModel& model,
                                     const netlist::Levelization& lev) {
  return nominal_recurrence(tg, model, lev);
}

std::vector<double> nominal_arrivals(const paths::TransitionWords::Lane& lane,
                                     const ArcDelayModel& model,
                                     const netlist::Levelization& lev) {
  return nominal_recurrence(lane, model, lev);
}

stats::SampleVector DynamicTimingSimulator::induced_delay(
    const TransitionGraph& tg, const ArrivalMatrix& arrivals) const {
  const Netlist& nl = field_->model().netlist();
  stats::SampleVector delta(field_->sample_count(), 0.0);
  for (const GateId o : nl.outputs()) {
    if (!tg.toggles(o) || arrivals.rows[o].empty()) continue;
    for (std::size_t s = 0; s < delta.size(); ++s) {
      delta[s] = std::max(delta[s], arrivals.rows[o][s]);
    }
  }
  return delta;
}

}  // namespace sddd::timing
