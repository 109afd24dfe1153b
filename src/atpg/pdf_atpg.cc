#include "atpg/pdf_atpg.h"

#include <algorithm>
#include <stdexcept>

#include "logicsim/ternary.h"
#include "obs/metrics.h"
#include "paths/transition_words.h"

namespace sddd::atpg {

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

/// atpg.fill.tried counts the fills the one-at-a-time loop would have
/// tested (through the first that activates); atpg.fill.activated counts
/// the generate() calls one of them activated.
void count_fills(std::size_t tried, bool activated) {
  static obs::Counter& tried_c =
      obs::MetricsRegistry::instance().register_counter("atpg.fill.tried");
  static obs::Counter& activated_c =
      obs::MetricsRegistry::instance().register_counter("atpg.fill.activated");
  tried_c.add(tried);
  if (activated) activated_c.add(1);
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

  // --- Launch vector v1. ---
  std::vector<Objective> v1_obj;
  if (robust) {
    // Final on-path values under v2 (the robust launch conditions read
    // them): one ternary sweep of the solved assignment.
    const auto val2 = TernarySimulator(nl, *lev_).simulate(sol2->pi_values);
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
  // The fills are drawn in the order the one-at-a-time loop draws them,
  // into lanes of one sweep pair (64 per sweep), with the RNG state saved
  // after each; the first activating lane wins and the RNG resumes from
  // the state after its fill, as if no later fill had been drawn.
  PathDelayTest test;
  test.path = path;
  test.rising_at_origin = rising_at_origin;
  test.robust = robust;
  const std::size_t n_pi = templates->v2.size();
  const std::size_t fills = std::max<std::size_t>(fill_retries, 1);
  paths::TransitionWords words(sim_);
  std::vector<std::uint64_t> w1(n_pi);
  std::vector<std::uint64_t> w2(n_pi);
  std::vector<stats::Rng> after_fill;
  for (std::size_t first = 0; first < fills; first += 64) {
    const std::size_t width = std::min<std::size_t>(64, fills - first);
    std::fill(w1.begin(), w1.end(), 0);
    std::fill(w2.begin(), w2.end(), 0);
    after_fill.clear();
    for (std::size_t lane = 0; lane < width; ++lane) {
      for (std::size_t i = 0; i < n_pi; ++i) {
        const Tern t = templates->v2[i];
        const bool v = t == Tern::kX ? fill_rng.coin() : t == Tern::k1;
        w2[i] |= static_cast<std::uint64_t>(v) << lane;
      }
      for (std::size_t i = 0; i < n_pi; ++i) {
        const Tern t = templates->v1[i];
        bool v = false;
        if (t != Tern::kX) {
          v = t == Tern::k1;
        } else if (robust) {
          // Quiet side inputs: minimize launch-side activity.
          v = ((w2[i] >> lane) & 1U) != 0;
        } else {
          v = fill_rng.coin();
        }
        w1[i] |= static_cast<std::uint64_t>(v) << lane;
      }
      after_fill.push_back(fill_rng);
    }
    words.simulate(w1, w2);
    // Lanes past `width` hold the all-zero pair, which activates nothing.
    const std::uint64_t activating = words.all_active(path.arcs);
    if (first == 0) test.pattern = words.pattern(0);
    if (activating != 0) {
      const auto lane = static_cast<unsigned>(__builtin_ctzll(activating));
      test.pattern = words.pattern(lane);
      test.activates = true;
      fill_rng = after_fill[lane];
      count_fills(first + lane + 1, true);
      return test;
    }
  }
  // No fill activated the whole path (multi-path sensitization effects);
  // return the first fill anyway - the dynamic simulator downstream will
  // see whatever it truly induces, mirroring the paper's use of logic-only
  // ATPG.
  count_fills(fills, false);
  return test;
}

bool PathDelayAtpg::activates(const Path& path,
                              const PatternPair& pattern) const {
  paths::TransitionWords words(sim_);
  words.simulate(std::span<const PatternPair>(&pattern, 1));
  return (words.all_active(path.arcs) & 1U) != 0;
}

PatternPair random_pattern_pair(std::size_t n_inputs, stats::Rng& rng) {
  PatternPair p;
  p.v1.resize(n_inputs);
  p.v2.resize(n_inputs);
  for (std::size_t i = 0; i < n_inputs; ++i) {
    p.v1[i] = rng.coin();
    p.v2[i] = rng.coin();
  }
  return p;
}

}  // namespace sddd::atpg
