#include "paths/transition_words.h"

#include <stdexcept>

namespace sddd::paths {

using logicsim::PatternPair;
using netlist::ArcId;
using netlist::CellType;
using netlist::GateId;
using netlist::Netlist;

TransitionWords::TransitionWords(const logicsim::BitSimulator& sim)
    : sim_(&sim),
      v1_(sim.netlist().gate_count(), 0),
      v2_(sim.netlist().gate_count(), 0),
      toggle_(sim.netlist().gate_count(), 0),
      min_rule_(sim.netlist().gate_count(), 0),
      active_(sim.netlist().arc_count(), 0) {}

void TransitionWords::simulate(std::span<const std::uint64_t> pi_v1,
                               std::span<const std::uint64_t> pi_v2) {
  sim_->simulate_into(pi_v1, v1_);
  sim_->simulate_into(pi_v2, v2_);
  derive();
}

void TransitionWords::simulate(std::span<const PatternPair> pairs) {
  if (pairs.size() > 64) {
    throw std::invalid_argument("TransitionWords: more than 64 pattern pairs");
  }
  const std::size_t n_pi = netlist().inputs().size();
  for (const PatternPair& p : pairs) {
    if (p.v1.size() != n_pi || p.v2.size() != n_pi) {
      throw std::invalid_argument("TransitionWords: pattern size mismatch");
    }
  }
  pi_v1_.assign(n_pi, 0);
  pi_v2_.assign(n_pi, 0);
  if (pairs.size() == 1) {
    // One pair (a TransitionGraph): v1 in bit 0 and v2 in bit 1 of a
    // single sweep, then split into lane 0 of each vector's words.
    for (std::size_t i = 0; i < n_pi; ++i) {
      pi_v1_[i] = (pairs[0].v1[i] ? 1U : 0U) | (pairs[0].v2[i] ? 2U : 0U);
    }
    sim_->simulate_into(pi_v1_, v1_);
    for (std::size_t g = 0; g < v1_.size(); ++g) {
      v2_[g] = (v1_[g] >> 1) & 1U;
      v1_[g] &= 1U;
    }
    derive();
    return;
  }
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const std::uint64_t bit = 1ULL << k;
    for (std::size_t i = 0; i < n_pi; ++i) {
      if (pairs[k].v1[i]) pi_v1_[i] |= bit;
      if (pairs[k].v2[i]) pi_v2_[i] |= bit;
    }
  }
  simulate(pi_v1_, pi_v2_);
}

void TransitionWords::derive() {
  const Netlist& nl = netlist();
  for (std::size_t g = 0; g < toggle_.size(); ++g) toggle_[g] = v1_[g] ^ v2_[g];
  // Only the program's gates have fanin arcs; every other gate keeps the
  // all-zero min_rule word it was constructed with.
  const logicsim::BitSimulator::Program& p = sim_->program();
  for (std::size_t op = 0; op < p.gates.size(); ++op) {
    const GateId g = p.gates[op];
    const GateId* fanins = p.fanins.data() + p.fanin_begin[op];
    const std::uint32_t n_pins = p.fanin_begin[op + 1] - p.fanin_begin[op];
    const std::uint64_t t = toggle_[g];
    // An arc is active when its gate and its driver both toggle.  For a
    // gate that settles controlled this already selects the inputs that
    // toggled *to* the controlling value: its output toggled, so under v1
    // no input held the controlling value.
    std::uint64_t* act = active_.data() + nl.arc_base(g);
    for (std::uint32_t pin = 0; pin < n_pins; ++pin) {
      act[pin] = t & toggle_[fanins[pin]];
    }
    if (!has_controlling_value(p.types[op])) continue;
    // The MIN rule: lanes in which the gate toggles and some fanin
    // settles at the controlling value.
    const std::uint64_t flip = controlling_value(p.types[op]) ? 0 : ~0ULL;
    std::uint64_t controlled = 0;
    for (std::uint32_t pin = 0; pin < n_pins; ++pin) {
      controlled |= v2_[fanins[pin]] ^ flip;
    }
    min_rule_[g] = t & controlled;
  }
}

std::uint64_t TransitionWords::all_active(std::span<const ArcId> arcs) const {
  std::uint64_t lanes = ~0ULL;
  for (const ArcId a : arcs) lanes &= active_[a];
  return lanes;
}

PatternPair TransitionWords::pattern(unsigned lane) const {
  const auto& inputs = netlist().inputs();
  PatternPair p;
  p.v1.resize(inputs.size());
  p.v2.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    p.v1[i] = ((v1_[inputs[i]] >> lane) & 1U) != 0;
    p.v2[i] = ((v2_[inputs[i]] >> lane) & 1U) != 0;
  }
  return p;
}

}  // namespace sddd::paths
