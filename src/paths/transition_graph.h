// transition_graph.h - Per-pattern sensitization analysis.
//
// Given a two-vector test (v1, v2), this module answers which nets toggle
// and which timing arcs are *active*, i.e. carry a transition that
// contributes to the output settling time.  The active subgraph is exactly
// the paper's induced circuit Induced(Path_v) (Definitions D.3-D.5): the
// statistical dynamic timing simulator propagates arrival-time random
// variables only along active arcs.
//
// Arrival semantics per gate ("transition mode" timing):
//   - the gate's output must toggle between v1 and v2 to carry an arrival;
//   - if the final (v2) output value is *controlled* (some input sits at
//     the controlling value), the output switched when the FIRST input
//     arrived at the controlling value: arrival = MIN over inputs that
//     toggled to the controlling value;
//   - otherwise the output switched when the LAST toggling input settled:
//     arrival = MAX over toggling inputs (this covers XOR/NOT/BUF too).
//
// This is the standard gate-level approximation of the waveforms a
// Monte-Carlo SPICE dynamic simulation would produce (Section H-2); it
// keeps every quantity a pure min/max/plus network over arc-delay samples,
// which makes all timing quantities monotone in every arc delay - the
// property that guarantees S_crt = E_crt - M_crt >= 0 (Definition E.1).
//
// The rules themselves are computed 64 patterns at a time by
// TransitionWords (transition_words.h); a TransitionGraph is one lane of
// that kernel, copied out with its active fanin arcs stored flat (CSR) for
// the per-pattern walks of the timing simulator, the cone rows of suspect
// extraction and path enumeration.  Each construction counts one
// `paths.tg.builds`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "paths/transition_words.h"

namespace sddd::paths {

/// Sensitization result for one pattern pair on one netlist.
class TransitionGraph {
 public:
  /// Simulates v1/v2 with `sim` and derives toggles, active arcs and
  /// per-gate arrival rules.
  TransitionGraph(const logicsim::BitSimulator& sim,
                  const netlist::Levelization& lev,
                  const logicsim::PatternPair& pattern);

  /// The graph of lane `lane` of already-simulated words.
  TransitionGraph(const TransitionWords& words, unsigned lane,
                  const netlist::Levelization& lev);

  const netlist::Netlist& netlist() const { return *nl_; }

  /// True when the net toggles between the two vectors.
  bool toggles(netlist::GateId g) const { return (state_[g] & kToggle) != 0; }

  /// True when the arc carries a contributing transition (see header).
  bool is_active(netlist::ArcId a) const { return active_[a] != 0; }

  ArrivalRule rule(netlist::GateId g) const {
    return (state_[g] & kMinRule) != 0 ? ArrivalRule::kMinOverActive
                                       : ArrivalRule::kMaxOverActive;
  }

  /// Active fanin arcs of gate g (subset of its pins, in pin order), empty
  /// when the gate does not toggle or is a source.
  std::span<const netlist::ArcId> active_fanins(netlist::GateId g) const {
    return {fanin_arcs_.data() + fanin_begin_[g],
            fanin_arcs_.data() + fanin_begin_[g + 1]};
  }

  /// Final (v2) logic value of each gate; used by tests and the ATPG.
  bool final_value(netlist::GateId g) const { return (state_[g] & kV2) != 0; }
  /// Initial (v1) logic value of each gate.
  bool initial_value(netlist::GateId g) const {
    return (state_[g] & kV1) != 0;
  }

  /// True when at least one primary output toggles (the pattern exercises
  /// some path; otherwise the induced circuit is empty).
  bool any_output_toggles() const;

  /// Arcs lying on some active path that terminates at output gate `o`:
  /// the backward cone over active arcs.  Returns one flag per arc.
  /// These are the arcs whose delay can influence Ar(o) - the suspect
  /// universe of Algorithm E.1 step 1 for a failing (o, v) pair.
  std::vector<bool> cone_to_output(netlist::GateId o) const;

  /// Words per cone row: ceil(arc_count / 64).
  std::size_t cone_row_words() const { return (active_.size() + 63) / 64; }

  /// cone_to_output(o) as an arc bitset: bit a of row[a / 64] is set when
  /// arc a is in the cone, and the bits past the last arc are zero - the
  /// layout of the dictionary store's "cones" section.  `row` must hold
  /// cone_row_words() words; every word is overwritten.
  void cone_row(netlist::GateId o, std::span<std::uint64_t> row) const;

  /// Gates downstream of gate `g` (inclusive) reachable over active arcs:
  /// the forward cone a defect at g can influence, in topological order.
  /// Used for incremental dictionary simulation.
  std::vector<netlist::GateId> forward_cone(netlist::GateId g) const;

 private:
  /// Bits of state_.
  static constexpr std::uint8_t kV1 = 1;
  static constexpr std::uint8_t kV2 = 2;
  static constexpr std::uint8_t kToggle = 4;
  static constexpr std::uint8_t kMinRule = 8;

  const netlist::Netlist* nl_;
  const netlist::Levelization* lev_;
  /// Per gate: kV1 | kV2 | kToggle | kMinRule.
  std::vector<std::uint8_t> state_;
  std::vector<std::uint8_t> active_;  ///< per arc: 1 when active
  /// Active fanin arcs of gate g: fanin_arcs_[fanin_begin_[g] ..
  /// fanin_begin_[g + 1]).
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<netlist::ArcId> fanin_arcs_;
};

}  // namespace sddd::paths
