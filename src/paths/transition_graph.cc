#include "paths/transition_graph.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace sddd::paths {

using logicsim::PatternPair;
using netlist::ArcId;
using netlist::GateId;
using netlist::Netlist;

namespace {

obs::Counter& builds_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("paths.tg.builds");
  return c;
}

TransitionWords one_pair(const logicsim::BitSimulator& sim,
                         const PatternPair& pattern) {
  TransitionWords words(sim);
  words.simulate(std::span<const PatternPair>(&pattern, 1));
  return words;
}

}  // namespace

TransitionGraph::TransitionGraph(const logicsim::BitSimulator& sim,
                                 const netlist::Levelization& lev,
                                 const PatternPair& pattern)
    : TransitionGraph(one_pair(sim, pattern), 0, lev) {}

TransitionGraph::TransitionGraph(const TransitionWords& words, unsigned lane,
                                 const netlist::Levelization& lev)
    : nl_(&words.netlist()), lev_(&lev) {
  builds_counter().add(1);
  const Netlist& nl = *nl_;
  const std::size_t n = nl.gate_count();
  const auto bit = [lane](std::uint64_t word) {
    return static_cast<std::uint8_t>((word >> lane) & 1U);
  };
  state_.resize(n);
  for (GateId g = 0; g < n; ++g) {
    state_[g] = static_cast<std::uint8_t>(
        bit(words.launch(g)) * kV1 | bit(words.capture(g)) * kV2 |
        bit(words.toggles(g)) * kToggle | bit(words.min_rule(g)) * kMinRule);
  }
  active_.resize(nl.arc_count());
  fanin_begin_.resize(n + 1);
  fanin_begin_[0] = 0;
  for (GateId g = 0; g < n; ++g) {
    const ArcId base = nl.arc_base(g);
    const std::size_t pins = nl.gate(g).fanins.size();
    for (std::uint32_t pin = 0; pin < pins; ++pin) {
      active_[base + pin] = bit(words.active(base + pin));
      if (active_[base + pin] != 0) fanin_arcs_.push_back(base + pin);
    }
    fanin_begin_[g + 1] = static_cast<std::uint32_t>(fanin_arcs_.size());
  }
}

bool TransitionGraph::any_output_toggles() const {
  return std::any_of(nl_->outputs().begin(), nl_->outputs().end(),
                     [&](GateId o) { return toggles(o); });
}

std::vector<bool> TransitionGraph::cone_to_output(GateId o) const {
  std::vector<std::uint64_t> row(cone_row_words());
  cone_row(o, row);
  std::vector<bool> in_cone(nl_->arc_count(), false);
  for (ArcId a = 0; a < in_cone.size(); ++a) {
    in_cone[a] = ((row[a >> 6] >> (a & 63)) & 1U) != 0;
  }
  return in_cone;
}

void TransitionGraph::cone_row(GateId o, std::span<std::uint64_t> row) const {
  if (row.size() != cone_row_words()) {
    throw std::invalid_argument("TransitionGraph::cone_row: row size mismatch");
  }
  std::fill(row.begin(), row.end(), 0);
  if (!toggles(o)) return;
  std::vector<bool> visited(nl_->gate_count(), false);
  std::vector<GateId> stack = {o};
  visited[o] = true;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const ArcId a : active_fanins(g)) {
      row[a >> 6] |= std::uint64_t{1} << (a & 63);
      const auto& arc = nl_->arc(a);
      const GateId f = nl_->gate(arc.gate).fanins[arc.pin];
      if (!visited[f]) {
        visited[f] = true;
        stack.push_back(f);
      }
    }
  }
}

std::vector<GateId> TransitionGraph::forward_cone(GateId g) const {
  std::vector<GateId> cone;
  if (!toggles(g)) return cone;
  std::vector<bool> visited(nl_->gate_count(), false);
  std::vector<GateId> stack = {g};
  visited[g] = true;
  while (!stack.empty()) {
    const GateId cur = stack.back();
    stack.pop_back();
    cone.push_back(cur);
    for (const GateId fo : nl_->gate(cur).fanouts) {
      if (visited[fo]) continue;
      // The fanout is in the cone when one of its *active* fanin arcs
      // originates at `cur`.
      for (const ArcId a : active_fanins(fo)) {
        const auto& arc = nl_->arc(a);
        if (nl_->gate(arc.gate).fanins[arc.pin] == cur) {
          visited[fo] = true;
          stack.push_back(fo);
          break;
        }
      }
    }
  }
  std::sort(cone.begin(), cone.end(), [&](GateId a, GateId b) {
    return lev_->level(a) < lev_->level(b);
  });
  return cone;
}

}  // namespace sddd::paths
