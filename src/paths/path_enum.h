// path_enum.h - Path selection and enumeration.
//
// Section H-4: "For the injected fault and circuit instance, we find a set
// of 'longest' paths through the fault site and generate path delay tests
// for them.  The longest paths are derived using false-path aware static
// statistical timing analysis."  This module provides that selection: the
// K heaviest structural paths through a given timing arc under per-arc
// weights (typically the mean of each arc's delay random variable, i.e.
// the statistically longest paths), plus enumeration of the active paths
// of a pattern's induced circuit for tests and the Figure 1 study.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "paths/path.h"
#include "paths/transition_graph.h"

namespace sddd::paths {

/// Longest-distance tables for weighted path queries.
class PathDistances {
 public:
  /// arc_weight has one entry per arc (e.g. mean arc delays).
  PathDistances(const netlist::Netlist& nl, const netlist::Levelization& lev,
                std::span<const double> arc_weight);

  /// Heaviest PI-to-here distance ending at gate g's output (0 at sources).
  double upstream(netlist::GateId g) const { return up_[g]; }

  /// Heaviest here-to-PO distance starting at gate g's output (0 when g
  /// drives a PO and nothing heavier lies beyond it).
  double downstream(netlist::GateId g) const { return down_[g]; }

  /// Weight of the heaviest path through arc `a`.
  double through_arc(netlist::ArcId a) const;

  /// Weight of the heaviest path in the circuit (nominal critical path).
  double critical_weight() const;

 private:
  const netlist::Netlist* nl_;
  std::vector<double> up_;
  std::vector<double> down_;
  std::span<const double> weight_;
  std::vector<double> weight_copy_;
};

/// Returns up to `k` distinct heavy paths through arc `site`, heaviest
/// first.  Enumeration explores extensions in descending weight-to-go
/// order, so the first path is the true heaviest; subsequent paths are
/// near-heaviest (greedy k-best, sufficient for ATPG target selection).
std::vector<Path> k_heaviest_paths_through(const netlist::Netlist& nl,
                                           const netlist::Levelization& lev,
                                           std::span<const double> arc_weight,
                                           netlist::ArcId site, std::size_t k);

/// Enumerates active paths of the induced circuit that end at output gate
/// `o` (every arc active in `tg`), up to `limit` paths.  The full list can
/// be exponential; callers cap it.
std::vector<Path> enumerate_active_paths(const TransitionGraph& tg,
                                         netlist::GateId o, std::size_t limit);

}  // namespace sddd::paths
