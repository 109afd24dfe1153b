#include "paths/path_enum.h"

#include <algorithm>
#include <stdexcept>

namespace sddd::paths {

using netlist::ArcId;
using netlist::Gate;
using netlist::GateId;
using netlist::Netlist;

PathDistances::PathDistances(const Netlist& nl,
                             const netlist::Levelization& lev,
                             std::span<const double> arc_weight)
    : nl_(&nl) {
  if (arc_weight.size() != nl.arc_count()) {
    throw std::invalid_argument("PathDistances: arc_weight size mismatch");
  }
  weight_copy_.assign(arc_weight.begin(), arc_weight.end());
  weight_ = weight_copy_;
  const std::size_t n = nl.gate_count();
  up_.assign(n, 0.0);
  down_.assign(n, 0.0);

  const auto& order = lev.topo_order();
  for (const GateId g : order) {
    const Gate& gate = nl.gate(g);
    if (!is_combinational(gate.type)) continue;
    double best = 0.0;
    for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
      best = std::max(best,
                      up_[gate.fanins[pin]] + weight_[nl.arc_of(g, pin)]);
    }
    up_[g] = best;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const GateId g = *it;
    const Gate& gate = nl.gate(g);
    if (!is_combinational(gate.type)) continue;
    for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
      const GateId f = gate.fanins[pin];
      down_[f] = std::max(down_[f], down_[g] + weight_[nl.arc_of(g, pin)]);
    }
  }
}

double PathDistances::through_arc(ArcId a) const {
  const auto& arc = nl_->arc(a);
  const GateId f = nl_->gate(arc.gate).fanins[arc.pin];
  return up_[f] + weight_[a] + down_[arc.gate];
}

double PathDistances::critical_weight() const {
  double best = 0.0;
  for (const GateId o : nl_->outputs()) best = std::max(best, up_[o]);
  return best;
}

namespace {

/// Extends `partial` (ending at gate `g`) forward to a PO, always taking
/// the heaviest continuation not yet exhausted; `skip` counts how many
/// times the search may deviate from the heaviest choice (to produce
/// distinct near-heaviest paths).
struct ForwardEnumerator {
  const Netlist& nl;
  const PathDistances& dist;
  std::span<const double> weight;
  std::size_t limit;
  std::vector<Path> out;

  // DFS over forward continuations in descending (w + downstream) order.
  void extend(Path& partial, GateId g) {
    if (out.size() >= limit) return;
    if (nl.output_index(g) >= 0 && !partial.empty()) {
      out.push_back(partial);
      // A PO driver may still have further fanout; fall through to also
      // explore longer continuations after recording this terminal path.
    }
    // Gather forward arcs from g.
    std::vector<ArcId> next;
    for (const GateId fo : nl.gate(g).fanouts) {
      const Gate& fog = nl.gate(fo);
      for (std::uint32_t pin = 0; pin < fog.fanins.size(); ++pin) {
        if (fog.fanins[pin] == g) next.push_back(nl.arc_of(fo, pin));
      }
    }
    std::sort(next.begin(), next.end(), [&](ArcId a, ArcId b) {
      return weight[a] + dist.downstream(nl.arc(a).gate) >
             weight[b] + dist.downstream(nl.arc(b).gate);
    });
    for (const ArcId a : next) {
      if (out.size() >= limit) return;
      partial.arcs.push_back(a);
      extend(partial, nl.arc(a).gate);
      partial.arcs.pop_back();
    }
  }
};

/// Enumerates backward prefixes from gate `g` to PIs, heaviest first,
/// invoking `sink` with each complete prefix (arcs in PI->g order).
template <typename Fn>
void enumerate_prefixes(const Netlist& nl, const PathDistances& dist,
                        std::span<const double> weight, GateId g,
                        std::vector<ArcId>& rev, Fn&& sink, std::size_t& budget) {
  if (budget == 0) return;
  const Gate& gate = nl.gate(g);
  if (!is_combinational(gate.type) || gate.fanins.empty()) {
    sink(rev);
    if (budget > 0) --budget;
    return;
  }
  std::vector<std::uint32_t> pins(gate.fanins.size());
  for (std::uint32_t i = 0; i < pins.size(); ++i) pins[i] = i;
  std::sort(pins.begin(), pins.end(), [&](std::uint32_t a, std::uint32_t b) {
    return dist.upstream(gate.fanins[a]) + weight[nl.arc_of(g, a)] >
           dist.upstream(gate.fanins[b]) + weight[nl.arc_of(g, b)];
  });
  for (const std::uint32_t pin : pins) {
    if (budget == 0) return;
    rev.push_back(nl.arc_of(g, pin));
    enumerate_prefixes(nl, dist, weight, gate.fanins[pin], rev, sink, budget);
    rev.pop_back();
  }
}

}  // namespace

std::vector<Path> k_heaviest_paths_through(const Netlist& nl,
                                           const netlist::Levelization& lev,
                                           std::span<const double> arc_weight,
                                           ArcId site, std::size_t k) {
  if (k == 0) return {};
  const PathDistances dist(nl, lev, arc_weight);
  const auto& arc = nl.arc(site);
  const GateId head = arc.gate;                        // gate after the site
  const GateId tail = nl.gate(head).fanins[arc.pin];   // gate before the site

  // Enumerate up to k backward prefixes into `tail` and, for each, up to k
  // forward suffixes from `head`; keep the k heaviest combinations.
  std::vector<std::vector<ArcId>> prefixes;
  std::vector<ArcId> rev;
  std::size_t budget = k;
  enumerate_prefixes(
      nl, dist, arc_weight, tail, rev,
      [&](const std::vector<ArcId>& r) {
        std::vector<ArcId> fwd(r.rbegin(), r.rend());
        prefixes.push_back(std::move(fwd));
      },
      budget);

  ForwardEnumerator fwd{nl, dist, arc_weight, k, {}};
  Path stub;
  fwd.extend(stub, head);

  std::vector<Path> result;
  for (const auto& pre : prefixes) {
    // Suffix paths from `head` include the case where head itself is a PO
    // (handled by ForwardEnumerator recording the partial).
    if (nl.output_index(head) >= 0) {
      Path p;
      p.arcs = pre;
      p.arcs.push_back(site);
      result.push_back(std::move(p));
    }
    for (const Path& suf : fwd.out) {
      Path p;
      p.arcs = pre;
      p.arcs.push_back(site);
      p.arcs.insert(p.arcs.end(), suf.arcs.begin(), suf.arcs.end());
      result.push_back(std::move(p));
    }
  }
  // Heaviest first, ties in enumeration order: each weight is computed
  // once, then the candidates are stably ordered by it.
  std::vector<double> weight(result.size());
  std::vector<std::size_t> order(result.size());
  for (std::size_t i = 0; i < result.size(); ++i) {
    weight[i] = path_weight(result[i], arc_weight);
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight[a] > weight[b];
                   });
  std::vector<Path> sorted;
  sorted.reserve(result.size());
  for (const std::size_t i : order) sorted.push_back(std::move(result[i]));
  result = std::move(sorted);
  result.erase(std::unique(result.begin(), result.end()), result.end());
  if (result.size() > k) result.resize(k);
  return result;
}

std::vector<Path> enumerate_active_paths(const TransitionGraph& tg, GateId o,
                                         std::size_t limit) {
  std::vector<Path> out;
  if (!tg.toggles(o) || limit == 0) return out;
  const Netlist& nl = tg.netlist();
  // DFS backward over active arcs; emit when reaching a source (a gate with
  // no active fanins, i.e. a toggling PI).
  std::vector<ArcId> rev;
  const auto dfs = [&](auto&& self, GateId g) -> void {
    if (out.size() >= limit) return;
    const auto& act = tg.active_fanins(g);
    if (act.empty()) {
      Path p;
      p.arcs.assign(rev.rbegin(), rev.rend());
      if (!p.arcs.empty()) out.push_back(std::move(p));
      return;
    }
    for (const ArcId a : act) {
      if (out.size() >= limit) return;
      rev.push_back(a);
      const auto& arc = nl.arc(a);
      self(self, nl.gate(arc.gate).fanins[arc.pin]);
      rev.pop_back();
    }
  };
  dfs(dfs, o);
  return out;
}

}  // namespace sddd::paths
