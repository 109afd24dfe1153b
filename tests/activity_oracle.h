// activity_oracle.h - The scalar reference the word-parallel activity
// kernel, and the ATPG that reads it, are compared against.
//
// This is the one-pattern-at-a-time code the kernel replaced: a scalar
// transition graph per pattern pair (the activity rules of
// paths/transition_graph.h applied gate by gate to a two-lane sweep, with
// per-gate active fanin lists), the nominal-arrival walk over those lists,
// and the graph-based site search, detectability gate and fill loop of the
// ATPG.  It shares no activity or arrival code with src/, so a rule dropped
// from paths::TransitionWords shows up as a mismatch.  The kernel's
// contract is identity with this reference: every comparison is exact
// (patterns, RNG state, doubles bit for bit), never a tolerance.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "atpg/pdf_atpg.h"
#include "logicsim/bitsim.h"
#include "logicsim/ternary.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "paths/path.h"
#include "stats/rng.h"
#include "timing/delay_model.h"

namespace sddd::test_oracle {

/// The scalar transition graph of one pattern pair.
struct OracleGraph {
  const netlist::Netlist* nl;
  std::vector<bool> v1;
  std::vector<bool> v2;
  std::vector<bool> toggles;
  std::vector<bool> min_rule;
  std::vector<bool> active;  ///< per arc
  std::vector<std::vector<netlist::ArcId>> active_fanins;

  OracleGraph(const logicsim::BitSimulator& sim,
              const logicsim::PatternPair& pattern)
      : nl(&sim.netlist()) {
    const netlist::Netlist& n = *nl;
    // Both vectors in one sweep: bit 0 = v1, bit 1 = v2.
    const std::vector<logicsim::Pattern> pair = {pattern.v1, pattern.v2};
    const auto words = sim.simulate(sim.pack(pair));
    const std::size_t gates = n.gate_count();
    v1.assign(gates, false);
    v2.assign(gates, false);
    toggles.assign(gates, false);
    min_rule.assign(gates, false);
    active.assign(n.arc_count(), false);
    active_fanins.assign(gates, {});
    for (netlist::GateId g = 0; g < gates; ++g) {
      v1[g] = (words[g] & 1ULL) != 0;
      v2[g] = (words[g] & 2ULL) != 0;
      toggles[g] = v1[g] != v2[g];
    }
    for (netlist::GateId g = 0; g < gates; ++g) {
      const netlist::Gate& gate = n.gate(g);
      if (!toggles[g] || !is_combinational(gate.type)) continue;
      auto& act = active_fanins[g];
      if (has_controlling_value(gate.type)) {
        const bool ctrl = controlling_value(gate.type);
        bool final_controlled = false;
        for (const netlist::GateId f : gate.fanins) {
          final_controlled |= v2[f] == ctrl;
        }
        min_rule[g] = final_controlled;
        for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
          const netlist::GateId f = gate.fanins[pin];
          if (toggles[f] && (!final_controlled || v2[f] == ctrl)) {
            act.push_back(n.arc_of(g, pin));
          }
        }
      } else {
        for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
          if (toggles[gate.fanins[pin]]) act.push_back(n.arc_of(g, pin));
        }
      }
      for (const netlist::ArcId a : act) active[a] = true;
    }
  }

  /// Gates reachable from `g` over active arcs, g included (unordered).
  std::vector<netlist::GateId> forward_cone(netlist::GateId g) const {
    std::vector<netlist::GateId> cone;
    if (!toggles[g]) return cone;
    std::vector<bool> visited(nl->gate_count(), false);
    std::vector<netlist::GateId> stack = {g};
    visited[g] = true;
    while (!stack.empty()) {
      const netlist::GateId cur = stack.back();
      stack.pop_back();
      cone.push_back(cur);
      for (const netlist::GateId fo : nl->gate(cur).fanouts) {
        if (visited[fo]) continue;
        for (const netlist::ArcId a : active_fanins[fo]) {
          const auto& arc = nl->arc(a);
          if (nl->gate(arc.gate).fanins[arc.pin] == cur) {
            visited[fo] = true;
            stack.push_back(fo);
            break;
          }
        }
      }
    }
    return cone;
  }
};

/// Nominal arrivals over the graph's active fanin lists; -1 off the
/// induced circuit.
inline std::vector<double> oracle_nominal_arrivals(
    const OracleGraph& tg, const timing::ArcDelayModel& model,
    const netlist::Levelization& lev) {
  const netlist::Netlist& nl = model.netlist();
  std::vector<double> arr(nl.gate_count(), -1.0);
  for (const netlist::GateId g : lev.topo_order()) {
    if (!tg.toggles[g]) continue;
    if (!is_combinational(nl.gate(g).type)) {
      arr[g] = 0.0;
      continue;
    }
    const bool use_min = tg.min_rule[g];
    double best = use_min ? std::numeric_limits<double>::infinity() : 0.0;
    for (const netlist::ArcId a : tg.active_fanins[g]) {
      const auto& arc = nl.arc(a);
      const double cand =
          arr[nl.gate(arc.gate).fanins[arc.pin]] + model.mean(a);
      if (use_min ? (cand < best) : (cand > best)) best = cand;
    }
    arr[g] = best;
  }
  return arr;
}

/// atpg::site_activating_patterns, one graph per pre-screen survivor.
inline std::vector<logicsim::PatternPair> oracle_site_activating_patterns(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    netlist::ArcId site, std::size_t count, std::size_t tries,
    stats::Rng& rng) {
  const auto& nl = model.netlist();
  const logicsim::BitSimulator sim(nl, lev);
  const netlist::GateId site_gate = nl.arc(site).gate;
  const netlist::GateId site_src = nl.gate(site_gate).fanins[nl.arc(site).pin];
  const std::size_t n_pi = nl.inputs().size();
  struct Scored {
    logicsim::PatternPair pattern;
    double score;
  };
  std::vector<Scored> kept;
  std::vector<logicsim::PatternPair> batch(std::min<std::size_t>(64, tries));
  for (std::size_t done = 0; done < tries; done += batch.size()) {
    const std::size_t width = std::min(batch.size(), tries - done);
    std::vector<std::uint64_t> w1(n_pi, 0);
    std::vector<std::uint64_t> w2(n_pi, 0);
    for (std::size_t b = 0; b < width; ++b) {
      batch[b] = atpg::random_pattern_pair(n_pi, rng);
      for (std::size_t i = 0; i < n_pi; ++i) {
        if (batch[b].v1[i]) w1[i] |= (1ULL << b);
        if (batch[b].v2[i]) w2[i] |= (1ULL << b);
      }
    }
    const auto g1 = sim.simulate(w1);
    const auto g2 = sim.simulate(w2);
    std::uint64_t survivors =
        (g1[site_src] ^ g2[site_src]) & (g1[site_gate] ^ g2[site_gate]);
    if (width < 64) survivors &= (1ULL << width) - 1;
    while (survivors != 0) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(survivors));
      survivors &= survivors - 1;
      const OracleGraph tg(sim, batch[b]);
      if (!tg.active[site]) continue;
      const auto arr = oracle_nominal_arrivals(tg, model, lev);
      double down = 0.0;
      for (const netlist::GateId o : nl.outputs()) {
        if (tg.toggles[o]) down = std::max(down, arr[o]);
      }
      kept.push_back(Scored{batch[b], arr[site_gate] + down});
    }
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score > b.score;
                   });
  std::vector<logicsim::PatternPair> out;
  for (auto& s : kept) {
    if (out.size() >= count) break;
    bool dup = false;
    for (const auto& q : out) {
      dup |= s.pattern.v1 == q.v1 && s.pattern.v2 == q.v2;
    }
    if (!dup) out.push_back(std::move(s.pattern));
  }
  return out;
}

/// atpg::site_best_nominal_delay, one graph per pattern.
inline double oracle_site_best_nominal_delay(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    std::span<const logicsim::PatternPair> patterns, netlist::ArcId site) {
  const auto& nl = model.netlist();
  const logicsim::BitSimulator sim(nl, lev);
  const netlist::GateId site_gate = nl.arc(site).gate;
  double best = 0.0;
  for (const auto& p : patterns) {
    const OracleGraph tg(sim, p);
    if (!tg.active[site]) continue;
    const auto arr = oracle_nominal_arrivals(tg, model, lev);
    for (const netlist::GateId g : tg.forward_cone(site_gate)) {
      if (nl.output_index(g) >= 0 && tg.toggles[g]) {
        best = std::max(best, arr[g]);
      }
    }
  }
  return best;
}

/// The fill loop of atpg::PathDelayAtpg::generate, one fill and one graph
/// at a time.  `activating_fill` (optional) receives the index of the fill
/// returned because it activates the path, or -1 when none did.
inline std::optional<atpg::PathDelayTest> oracle_generate(
    const atpg::PathDelayAtpg& atpg, const logicsim::BitSimulator& sim,
    const paths::Path& path, bool rising_at_origin, bool robust,
    stats::Rng& fill_rng, std::size_t fill_retries,
    std::size_t max_backtracks, int* activating_fill = nullptr) {
  using logicsim::Tern;
  if (activating_fill != nullptr) *activating_fill = -1;
  const auto templates =
      atpg.sensitize(path, rising_at_origin, robust, max_backtracks);
  if (!templates) return std::nullopt;
  atpg::PathDelayTest best;
  best.path = path;
  best.rising_at_origin = rising_at_origin;
  best.robust = robust;
  for (std::size_t attempt = 0;
       attempt < std::max<std::size_t>(fill_retries, 1); ++attempt) {
    logicsim::Pattern v2(templates->v2.size());
    for (std::size_t i = 0; i < v2.size(); ++i) {
      const Tern t = templates->v2[i];
      v2[i] = t == Tern::kX ? fill_rng.bernoulli(0.5) : (t == Tern::k1);
    }
    logicsim::Pattern v1(v2.size());
    for (std::size_t i = 0; i < v1.size(); ++i) {
      const Tern t = templates->v1[i];
      if (t != Tern::kX) {
        v1[i] = (t == Tern::k1);
      } else if (robust) {
        v1[i] = v2[i];
      } else {
        v1[i] = fill_rng.bernoulli(0.5);
      }
    }
    logicsim::PatternPair pattern{std::move(v1), std::move(v2)};
    const OracleGraph tg(sim, pattern);
    const bool ok = std::all_of(path.arcs.begin(), path.arcs.end(),
                                [&](netlist::ArcId a) { return tg.active[a]; });
    if (attempt == 0 || ok) best.pattern = std::move(pattern);
    if (ok) {
      best.activates = true;
      if (activating_fill != nullptr) {
        *activating_fill = static_cast<int>(attempt);
      }
      return best;
    }
  }
  return best;
}

}  // namespace sddd::test_oracle
