#include "atpg/pdf_atpg.h"

#include <algorithm>
#include <stdexcept>

#include "logicsim/ternary.h"
#include "paths/transition_graph.h"

namespace sddd::atpg {

using logicsim::Pattern;
using logicsim::PatternPair;
using logicsim::Tern;
using logicsim::TernarySimulator;
using netlist::ArcId;
using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::Netlist;
using paths::Path;

PathDelayAtpg::PathDelayAtpg(const Netlist& nl,
                             const netlist::Levelization& lev,
                             ConflictCache* conflicts)
    : nl_(&nl), lev_(&lev), sim_(nl, lev), podem_(nl, lev, conflicts) {}

namespace {

/// Side pins of an on-path gate: every fanin pin except the on-path one.
std::vector<std::uint32_t> side_pins(const Gate& gate, std::uint32_t on_pin) {
  std::vector<std::uint32_t> pins;
  for (std::uint32_t p = 0; p < gate.fanins.size(); ++p) {
    if (p != on_pin) pins.push_back(p);
  }
  return pins;
}

Pattern fill_pattern(const std::vector<Tern>& tern, stats::Rng& rng) {
  Pattern p(tern.size());
  for (std::size_t i = 0; i < tern.size(); ++i) {
    p[i] = tern[i] == Tern::kX ? rng.bernoulli(0.5) : (tern[i] == Tern::k1);
  }
  return p;
}

}  // namespace

std::optional<SensitizedTemplates> PathDelayAtpg::sensitize(
    const Path& path, bool rising_at_origin, bool robust,
    std::size_t max_backtracks) const {
  const Netlist& nl = *nl_;
  if (!paths::is_valid_path(nl, path)) {
    throw std::invalid_argument("PathDelayAtpg: invalid path");
  }
  const GateId origin = paths::path_source(nl, path);
  if (nl.gate(origin).type != CellType::kInput) {
    return std::nullopt;  // paths must launch from a (pseudo) primary input
  }
  std::int32_t origin_pos = -1;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.inputs()[i] == origin) origin_pos = static_cast<std::int32_t>(i);
  }
  if (origin_pos < 0) return std::nullopt;

  // --- Final vector v2: static sensitization objectives. ---
  std::vector<Objective> v2_obj;
  for (const ArcId a : path.arcs) {
    const auto& arc = nl.arc(a);
    const Gate& gate = nl.gate(arc.gate);
    if (has_controlling_value(gate.type)) {
      const bool noncontrolling = !controlling_value(gate.type);
      for (const std::uint32_t p : side_pins(gate, arc.pin)) {
        v2_obj.push_back(Objective{gate.fanins[p], noncontrolling});
      }
    }
    // XOR-family side inputs are unconstrained for static sensitization.
  }
  std::vector<Tern> pre2(nl.inputs().size(), Tern::kX);
  pre2[static_cast<std::size_t>(origin_pos)] =
      rising_at_origin ? Tern::k1 : Tern::k0;
  const auto sol2 = podem_.solve(v2_obj, max_backtracks, pre2);
  if (!sol2) return std::nullopt;

  // Final on-path values under v2 (needed for the robust launch
  // conditions): one ternary sweep of the solved assignment.
  const TernarySimulator tsim(nl, *lev_);
  const auto val2 = tsim.simulate(sol2->pi_values);

  // --- Launch vector v1. ---
  std::vector<Objective> v1_obj;
  if (robust) {
    for (const ArcId a : path.arcs) {
      const auto& arc = nl.arc(a);
      const Gate& gate = nl.gate(arc.gate);
      const GateId on_input = gate.fanins[arc.pin];
      if (has_controlling_value(gate.type)) {
        const bool ctrl = controlling_value(gate.type);
        // When the on-path input settles at non-controlling, a side glitch
        // through the controlling value could retrigger the output: side
        // inputs must be steady non-controlling.
        const bool settles_noncontrolling = val2[on_input] == (ctrl ? Tern::k0 : Tern::k1);
        if (settles_noncontrolling || val2[on_input] == Tern::kX) {
          for (const std::uint32_t p : side_pins(gate, arc.pin)) {
            v1_obj.push_back(Objective{gate.fanins[p], !ctrl});
          }
        }
      } else if (gate.type == CellType::kXor || gate.type == CellType::kXnor) {
        // Robust XOR propagation needs steady side inputs: pin them in v1
        // to their (definite) v2 values.
        for (const std::uint32_t p : side_pins(gate, arc.pin)) {
          const GateId f = gate.fanins[p];
          if (val2[f] != Tern::kX) {
            v1_obj.push_back(Objective{f, val2[f] == Tern::k1});
          }
        }
      }
    }
  }
  std::vector<Tern> pre1(nl.inputs().size(), Tern::kX);
  pre1[static_cast<std::size_t>(origin_pos)] =
      rising_at_origin ? Tern::k0 : Tern::k1;
  const auto sol1 = podem_.solve(v1_obj, max_backtracks, pre1);
  if (!sol1) return std::nullopt;

  return SensitizedTemplates{sol1->pi_values, sol2->pi_values};
}

std::optional<PathDelayTest> PathDelayAtpg::generate(
    const Path& path, bool rising_at_origin, bool robust,
    stats::Rng& fill_rng, std::size_t fill_retries,
    std::size_t max_backtracks) const {
  const auto templates =
      sensitize(path, rising_at_origin, robust, max_backtracks);
  if (!templates) return std::nullopt;

  // --- Fill unconstrained PIs; prefer fills that truly activate the path.
  PathDelayTest best;
  best.path = path;
  best.rising_at_origin = rising_at_origin;
  best.robust = robust;
  for (std::size_t attempt = 0; attempt < std::max<std::size_t>(fill_retries, 1);
       ++attempt) {
    Pattern v2 = fill_pattern(templates->v2, fill_rng);
    Pattern v1(v2.size());
    for (std::size_t i = 0; i < v1.size(); ++i) {
      const Tern t = templates->v1[i];
      if (t != Tern::kX) {
        v1[i] = (t == Tern::k1);
      } else if (robust) {
        v1[i] = v2[i];  // quiet side inputs: minimize launch-side activity
      } else {
        v1[i] = fill_rng.bernoulli(0.5);
      }
    }
    PatternPair pattern{std::move(v1), std::move(v2)};
    const bool ok = activates(path, pattern);
    if (attempt == 0 || ok) best.pattern = std::move(pattern);
    if (ok) return best;
  }
  // No fill activated the whole path (multi-path sensitization effects);
  // return the last candidate anyway - the dynamic simulator downstream
  // will see whatever it truly induces, mirroring the paper's use of
  // logic-only ATPG.
  return best;
}

bool PathDelayAtpg::activates(const Path& path,
                              const PatternPair& pattern) const {
  const paths::TransitionGraph tg(sim_, *lev_, pattern);
  return std::all_of(path.arcs.begin(), path.arcs.end(),
                     [&](ArcId a) { return tg.is_active(a); });
}

PatternPair random_pattern_pair(std::size_t n_inputs, stats::Rng& rng) {
  PatternPair p;
  p.v1.resize(n_inputs);
  p.v2.resize(n_inputs);
  for (std::size_t i = 0; i < n_inputs; ++i) {
    p.v1[i] = rng.bernoulli(0.5);
    p.v2[i] = rng.bernoulli(0.5);
  }
  return p;
}

}  // namespace sddd::atpg
