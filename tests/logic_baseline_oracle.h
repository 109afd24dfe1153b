// logic_baseline_oracle.h - The reference the logic baseline's cone-row
// counts are compared against.
//
// This is the per-cell loop LogicBaselineDiagnoser::diagnose replaced: one
// transition graph per pattern, every output's cone as an arc-indexed
// flag vector, and every arc of every cone compared with the observed
// cell.  It shares the graph and its cone walk with src/ but none of the
// counting, so a dropped cone bit, a miscounted passing cell or a changed
// suspect rule shows up as a different ranking.  Comparisons are exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "diagnosis/behavior.h"
#include "diagnosis/logic_baseline.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "paths/transition_graph.h"

namespace sddd::test_oracle {

/// Gross-delay Hamming ranking, cell by cell and arc by arc.
inline std::vector<diagnosis::LogicRankedSuspect> oracle_logic_ranking(
    const logicsim::BitSimulator& sim, const netlist::Levelization& lev,
    std::span<const logicsim::PatternPair> patterns,
    const diagnosis::BehaviorMatrix& B) {
  const auto& nl = sim.netlist();
  std::vector<std::uint32_t> mismatch(nl.arc_count(), 0);
  std::vector<bool> is_suspect(nl.arc_count(), false);
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const paths::TransitionGraph tg(sim, lev, patterns[j]);
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
      const bool observed = B.at(i, j);
      const auto cone = tg.cone_to_output(nl.outputs()[i]);
      for (netlist::ArcId a = 0; a < nl.arc_count(); ++a) {
        if (cone[a] != observed) ++mismatch[a];
        if (observed && cone[a]) is_suspect[a] = true;
      }
    }
  }
  std::vector<diagnosis::LogicRankedSuspect> ranked;
  for (netlist::ArcId a = 0; a < nl.arc_count(); ++a) {
    if (is_suspect[a]) ranked.push_back({a, mismatch[a]});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& x, const auto& y) {
                     return x.hamming < y.hamming;
                   });
  return ranked;
}

}  // namespace sddd::test_oracle
