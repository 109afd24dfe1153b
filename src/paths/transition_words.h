// transition_words.h - Transition activity of 64 pattern pairs at once.
//
// The one implementation of the activity rules of Definitions D.3-D.5 (see
// transition_graph.h for what they mean).  Lane k of every word belongs to
// pattern pair k: a launch sweep (v1) and a capture sweep (v2) of
// BitSimulator give one value word per gate each, and from those the
// kernel derives, per lane,
//   - toggles(g):  g's value differs between v1 and v2;
//   - min_rule(g): g toggles, has a controlling value, and settles
//                  controlled (some fanin holds the controlling value
//                  under v2) - its arrival is the MIN over its active
//                  fanins, every other toggling gate takes the MAX;
//   - active(a):   arc a = (g, pin) carries a contributing transition: g
//                  and the pin's driver both toggle.  Under the MIN rule
//                  such a driver always settled at the controlling value
//                  (g toggled, so no input was controlling under v1).
// TransitionGraph is a one-lane view of these words; the ATPG reads the
// words directly, 64 candidate patterns per sweep pair.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "logicsim/bitsim.h"
#include "netlist/netlist.h"

namespace sddd::paths {

/// How a toggling gate's arrival time combines its active fanin arrivals.
enum class ArrivalRule : std::uint8_t {
  kMaxOverActive,  ///< final value non-controlled: latest active input
  kMinOverActive,  ///< final value controlled: earliest controlling input
};

class TransitionWords {
 public:
  /// Borrows `sim` (and its netlist) for the kernel's lifetime.
  explicit TransitionWords(const logicsim::BitSimulator& sim);

  /// Sweeps the launch PI words `pi_v1` and the capture PI words `pi_v2`
  /// (lane k of pi_v1[i] / pi_v2[i] = input i of pair k) and derives every
  /// lane's activity.  Lanes left 0 in both never toggle.
  void simulate(std::span<const std::uint64_t> pi_v1,
                std::span<const std::uint64_t> pi_v2);

  /// simulate() with up to 64 pairs packed into lanes (lane k = pairs[k]).
  void simulate(std::span<const logicsim::PatternPair> pairs);

  const netlist::Netlist& netlist() const { return sim_->netlist(); }

  /// Per-gate value words of the launch (v1) and capture (v2) sweeps.
  std::uint64_t launch(netlist::GateId g) const { return v1_[g]; }
  std::uint64_t capture(netlist::GateId g) const { return v2_[g]; }

  std::uint64_t toggles(netlist::GateId g) const { return toggle_[g]; }
  std::uint64_t min_rule(netlist::GateId g) const { return min_rule_[g]; }
  std::uint64_t active(netlist::ArcId a) const { return active_[a]; }

  /// Lanes in which every arc of `arcs` is active.
  std::uint64_t all_active(std::span<const netlist::ArcId> arcs) const;

  /// The pattern pair simulated in `lane` (read back from the input
  /// gates' words).
  logicsim::PatternPair pattern(unsigned lane) const;

  /// One lane through TransitionGraph's accessors.
  class Lane {
   public:
    Lane(const TransitionWords& words, unsigned lane)
        : w_(&words), lane_(lane) {}
    bool toggles(netlist::GateId g) const { return bit(w_->toggle_[g]); }
    ArrivalRule rule(netlist::GateId g) const {
      return bit(w_->min_rule_[g]) ? ArrivalRule::kMinOverActive
                                   : ArrivalRule::kMaxOverActive;
    }
    bool is_active(netlist::ArcId a) const { return bit(w_->active_[a]); }

   private:
    bool bit(std::uint64_t word) const { return ((word >> lane_) & 1U) != 0; }
    const TransitionWords* w_;
    unsigned lane_;
  };
  Lane lane(unsigned k) const { return Lane(*this, k); }

 private:
  void derive();

  const logicsim::BitSimulator* sim_;
  std::vector<std::uint64_t> v1_;
  std::vector<std::uint64_t> v2_;
  std::vector<std::uint64_t> toggle_;
  std::vector<std::uint64_t> min_rule_;
  std::vector<std::uint64_t> active_;
  std::vector<std::uint64_t> pi_v1_;  ///< packing scratch of the pairs overload
  std::vector<std::uint64_t> pi_v2_;
};

}  // namespace sddd::paths
