// extract_oracle.h - The reference the cone-row suspect extraction is
// compared against.
//
// This is the per-chip graph walk that suspects_from_cone_rows() replaced:
// one transition graph per failing pattern, a backward walk over its
// active fanins from each failing output, an arc-indexed support count and
// the stable best-supported cap of Algorithm E.1 step 1.  It shares no
// cone or selection code with src/ (the graph's active fanins come from
// the activity kernel, which tests/activity_oracle.h referees), so a cone
// bit dropped from a row, a row word cut short or a changed cap policy
// shows up as a different suspect vector.  Comparisons are exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "diagnosis/behavior.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "paths/transition_graph.h"

namespace sddd::test_oracle {

/// Arcs on an active path into output gate `o`, one flag per arc.
inline std::vector<bool> oracle_cone(const paths::TransitionGraph& tg,
                                     netlist::GateId o) {
  const netlist::Netlist& nl = tg.netlist();
  std::vector<bool> in_cone(nl.arc_count(), false);
  if (!tg.toggles(o)) return in_cone;
  std::vector<bool> visited(nl.gate_count(), false);
  std::vector<netlist::GateId> stack = {o};
  visited[o] = true;
  while (!stack.empty()) {
    const netlist::GateId g = stack.back();
    stack.pop_back();
    for (const netlist::ArcId a : tg.active_fanins(g)) {
      in_cone[a] = true;
      const auto& arc = nl.arc(a);
      const netlist::GateId f = nl.gate(arc.gate).fanins[arc.pin];
      if (!visited[f]) {
        visited[f] = true;
        stack.push_back(f);
      }
    }
  }
  return in_cone;
}

/// Algorithm E.1 step 1 the slow, obvious way.
inline std::vector<netlist::ArcId> oracle_suspects(
    const logicsim::BitSimulator& sim, const netlist::Levelization& lev,
    std::span<const logicsim::PatternPair> patterns,
    const diagnosis::BehaviorMatrix& B, std::size_t max_suspects) {
  const netlist::Netlist& nl = sim.netlist();
  std::vector<std::uint32_t> support(nl.arc_count(), 0);
  for (const std::size_t j : B.failing_patterns()) {
    const paths::TransitionGraph tg(sim, lev, patterns[j]);
    for (std::size_t i = 0; i < B.output_count(); ++i) {
      if (!B.at(i, j)) continue;
      const std::vector<bool> cone = oracle_cone(tg, nl.outputs()[i]);
      for (netlist::ArcId a = 0; a < nl.arc_count(); ++a) {
        if (cone[a]) ++support[a];
      }
    }
  }
  std::vector<netlist::ArcId> suspects;
  for (netlist::ArcId a = 0; a < nl.arc_count(); ++a) {
    if (support[a] > 0) suspects.push_back(a);
  }
  if (max_suspects > 0 && suspects.size() > max_suspects) {
    std::stable_sort(suspects.begin(), suspects.end(),
                     [&](netlist::ArcId a, netlist::ArcId b) {
                       return support[a] > support[b];
                     });
    suspects.resize(max_suspects);
    std::sort(suspects.begin(), suspects.end());
  }
  return suspects;
}

}  // namespace sddd::test_oracle
