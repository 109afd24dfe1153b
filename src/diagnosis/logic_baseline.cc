#include "diagnosis/logic_baseline.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "paths/path_enum.h"
#include "paths/transition_graph.h"

namespace sddd::diagnosis {

using netlist::ArcId;
using netlist::GateId;

std::vector<std::vector<bool>> LogicBaselineDiagnoser::signature(
    std::span<const logicsim::PatternPair> patterns, ArcId suspect) const {
  const auto& nl = logic_sim_->netlist();
  std::vector<std::vector<bool>> sig(
      nl.outputs().size(), std::vector<bool>(patterns.size(), false));
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const paths::TransitionGraph tg(*logic_sim_, *lev_, patterns[j]);
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
      const auto cone = tg.cone_to_output(nl.outputs()[i]);
      sig[i][j] = cone[suspect];
    }
  }
  return sig;
}

std::vector<LogicRankedSuspect> LogicBaselineDiagnoser::diagnose(
    std::span<const logicsim::PatternPair> patterns,
    const BehaviorMatrix& B) const {
  const auto& nl = logic_sim_->netlist();
  const std::size_t n_out = nl.outputs().size();

  // Gross-delay prediction: cell (i, j) fails iff the arc is in output i's
  // cone under pattern j.  So an arc's Hamming distance is the failing
  // cells whose cone misses it plus the passing cells whose cone holds it:
  //   mismatch(a) = failing cells - failing cones holding a
  //                 + passing cones holding a,
  // and only the cones' set bits are visited.  The suspects are the union
  // of the failing cells' cones (Algorithm E.1 step 1).
  std::vector<std::uint32_t> in_failing(nl.arc_count(), 0);
  std::vector<std::uint32_t> in_passing(nl.arc_count(), 0);
  std::vector<std::uint64_t> row;
  std::uint32_t failing = 0;
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const paths::TransitionGraph tg(*logic_sim_, *lev_, patterns[j]);
    row.resize(tg.cone_row_words());
    for (std::size_t i = 0; i < n_out; ++i) {
      tg.cone_row(nl.outputs()[i], row);
      failing += B.at(i, j) ? 1U : 0U;
      std::vector<std::uint32_t>& hits = B.at(i, j) ? in_failing : in_passing;
      for (std::size_t w = 0; w < row.size(); ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          ++hits[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        }
      }
    }
  }

  std::vector<LogicRankedSuspect> ranked;
  for (ArcId a = 0; a < nl.arc_count(); ++a) {
    if (in_failing[a] == 0) continue;
    ranked.push_back(
        LogicRankedSuspect{a, failing - in_failing[a] + in_passing[a]});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const LogicRankedSuspect& x, const LogicRankedSuspect& y) {
                     return x.hamming < y.hamming;
                   });
  return ranked;
}

}  // namespace sddd::diagnosis
