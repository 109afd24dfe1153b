// dynamic_sim.h - Statistical dynamic timing simulation (Definitions
// D.5-D.7) with incremental defect evaluation.
//
// Given a pattern's transition graph (the induced circuit Induced(Path_v)),
// the simulator propagates arrival-time samples along active arcs only:
//
//   Ar(g)[k] = rule_g over active fanin arcs a of (Ar(fanin)[k] + d(a, k))
//
// where rule_g is MIN or MAX per the transition-mode semantics documented
// in paths/transition_graph.h, and d(a, k) comes from a DelayField
// (optionally plus a defect's extra delay on one arc).
//
// Three query flavours serve the diagnosis flow:
//   - simulate():              defect-free arrivals -> the M_crt row of the
//                              probabilistic fault dictionary;
//   - error_vector_with_defect(): arrivals with a candidate defect,
//                              recomputed only inside the defect's active
//                              fan-out cone -> the E_crt row (this is what
//                              makes per-suspect dictionary construction
//                              tractable, the paper's feasibility question
//                              (3));
//   - simulate_instance():     one chip (one sample index) with a fixed
//                              defect size -> the observed behavior matrix
//                              B of a failing chip.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "netlist/levelize.h"
#include "paths/transition_graph.h"
#include "stats/sample_vector.h"
#include "timing/delay_field.h"

namespace sddd::timing {

/// Arrival samples for every toggling gate of one pattern.  Rows of
/// non-toggling gates are empty (those outputs are not in the induced
/// circuit; their critical probability is 0 by Definition D.7).
struct ArrivalMatrix {
  std::vector<std::vector<double>> rows;  ///< [gate][sample]

  bool has(netlist::GateId g) const { return !rows[g].empty(); }
};

/// A delay defect placed on one arc for simulation purposes: extra delay
/// per Monte-Carlo sample (dictionary use: samples of the defect-size RV)
/// or one scalar (instance use).
struct InjectedDefect {
  netlist::ArcId arc = netlist::kInvalidArc;
  std::vector<double> extra;  ///< per-sample extra delay; size = sample count
};

class DynamicTimingSimulator {
 public:
  DynamicTimingSimulator(const DelayField& field,
                         const netlist::Levelization& lev);

  const DelayField& field() const { return *field_; }

  /// Materializes the memoized delay rows of every arc.  REQUIRED before
  /// any concurrent use of this simulator: the lazy per-arc memoization in
  /// arc_delays() is written on first access and is therefore not safe for
  /// concurrent callers.  After prewarm() every query is read-only and any
  /// number of threads may share the simulator.  Idempotent; safe to call
  /// from serial code only.  Enforced: a lazy materialization attempted
  /// from inside a runtime parallel region throws std::logic_error instead
  /// of racing.
  void prewarm() const;

  /// True once prewarm() has completed.
  bool prewarmed() const {
    return prewarmed_.load(std::memory_order_acquire);
  }

  /// Defect-free arrivals of all toggling gates under `tg`.
  ArrivalMatrix simulate(const paths::TransitionGraph& tg) const;

  /// Err(C, v, clk) of Definition D.7: critical probability per primary
  /// output (0 for outputs outside the induced circuit).
  std::vector<double> error_vector(const paths::TransitionGraph& tg,
                                   const ArrivalMatrix& arrivals,
                                   double clk) const;

  /// Err(D(C), v, clk): like error_vector but with `defect` added to one
  /// arc.  Recomputes only the defect's active fan-out cone; reads
  /// everything else from `baseline`.  When the defect arc is not active
  /// under `tg` the result equals the baseline error vector.
  std::vector<double> error_vector_with_defect(
      const paths::TransitionGraph& tg, const ArrivalMatrix& baseline,
      const InjectedDefect& defect, double clk) const;

  /// Allocation-free variant: the defect is (arc, per-sample extra delays)
  /// and the error vector is written into `out` (resized to |O|).  The
  /// InjectedDefect overload delegates here; hot callers - the per-
  /// (pattern, suspect) dictionary column builds - reuse `out` and a
  /// precomputed size table across calls instead of rebuilding an
  /// InjectedDefect and a fresh result vector every time.
  void error_vector_with_defect_into(const paths::TransitionGraph& tg,
                                     const ArrivalMatrix& baseline,
                                     netlist::ArcId arc,
                                     std::span<const double> extra, double clk,
                                     std::vector<double>& out) const;

  /// One chip instance: arrival per gate for sample `k` with a fixed-size
  /// defect (pass std::nullopt for defect-free).  Returns arrivals indexed
  /// by gate; non-toggling gates carry -1.
  std::vector<double> simulate_instance(
      const paths::TransitionGraph& tg, std::size_t k,
      std::optional<std::pair<netlist::ArcId, double>> defect) const;

  /// Multi-defect chip instance (the relaxed single-defect assumption,
  /// paper future work #3): every (arc, extra delay) pair is applied
  /// simultaneously.
  std::vector<double> simulate_instance_multi(
      const paths::TransitionGraph& tg, std::size_t k,
      std::span<const std::pair<netlist::ArcId, double>> defects) const;

  /// Delta(Induced(Path_v)) (Definition D.5): per-sample max over toggling
  /// primary outputs of the arrival matrix.
  stats::SampleVector induced_delay(const paths::TransitionGraph& tg,
                                    const ArrivalMatrix& arrivals) const;

  /// Per-sample indicator (1/0) of "at least one primary output exceeds
  /// clk" - the equivalence-checking-model error of Section F-2, needed
  /// jointly per sample by the coverage analysis (a union across patterns
  /// cannot be recovered from per-output marginals).
  std::vector<std::uint8_t> late_mask(const paths::TransitionGraph& tg,
                                      const ArrivalMatrix& arrivals,
                                      double clk) const;

  /// Like late_mask but with `defect` applied (incremental cone
  /// re-simulation against `baseline`).
  std::vector<std::uint8_t> late_mask_with_defect(
      const paths::TransitionGraph& tg, const ArrivalMatrix& baseline,
      const InjectedDefect& defect, double clk) const;

 private:
  /// Delay samples of one arc, materialized on first use.  The counter-
  /// based field recomputes an inverse CDF per (arc, sample) access; the
  /// dictionary's cone re-simulations touch the same arcs thousands of
  /// times, so memoizing rows is the difference between seconds and
  /// minutes on the larger benchmarks.
  ///
  /// NOT safe for concurrent callers while a row is still empty - call
  /// prewarm() before sharing the simulator across threads (the empty-row
  /// path throws when reached inside a parallel region).
  const std::vector<double>& arc_delays(netlist::ArcId a) const;

  void materialize_row(netlist::ArcId a) const;

  /// Scratch arrival rows for the defect's active fan-out cone, plus the
  /// gate -> scratch-index map (-1 = read the baseline).  Shared by the
  /// error-vector and late-mask defect queries.
  struct ConeRows {
    std::vector<std::vector<double>> scratch;
    std::vector<std::int32_t> cone_index;
  };
  ConeRows recompute_cone(const paths::TransitionGraph& tg,
                          const ArrivalMatrix& baseline, netlist::ArcId arc,
                          std::span<const double> extra) const;

  void error_vector_into(const paths::TransitionGraph& tg,
                         const ArrivalMatrix& arrivals, double clk,
                         std::vector<double>& out) const;

  const DelayField* field_;
  const netlist::Levelization* lev_;
  mutable std::vector<std::vector<double>> delay_cache_;
  mutable std::atomic<bool> prewarmed_{false};
};

/// Nominal (mean-delay) arrival per gate under the transition-mode
/// semantics: the deterministic skeleton of the statistical simulation,
/// used by the GA fill fitness and the pattern-search heuristics.
/// Non-toggling gates carry -1.
std::vector<double> nominal_arrivals(const paths::TransitionGraph& tg,
                                     const ArcDelayModel& model,
                                     const netlist::Levelization& lev);

/// The same arrivals for one lane of a 64-lane activity kernel, without
/// building its graph (the ATPG's site search and detectability gate).
/// Bit-identical to the TransitionGraph overload for that lane's pattern.
std::vector<double> nominal_arrivals(const paths::TransitionWords::Lane& lane,
                                     const ArcDelayModel& model,
                                     const netlist::Levelization& lev);

}  // namespace sddd::timing
