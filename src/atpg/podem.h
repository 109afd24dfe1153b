// podem.h - PODEM-style single-vector objective satisfaction.
//
// The path-delay-fault ATPG (Section G: tests "generated based purely on
// logic path sensitization conditions") reduces each vector of a two-vector
// test to a set of (gate, value) objectives - e.g. "every side input of the
// targeted path holds its non-controlling value".  This module solves such
// objective sets with the classic PODEM search: decisions are made only on
// primary inputs, objectives are backtraced through X-paths, and
// contradictions backtrack with a bounded budget.  Implication runs on a
// compiled event-driven engine (CSR fan-ins and fan-outs, flat cell types
// and levels, inline ternary evaluation) that re-evaluates only the cone
// an assignment changes, level by level.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "logicsim/ternary.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace sddd::atpg {

/// A required logic value on a gate's output.
struct Objective {
  netlist::GateId gate = netlist::kInvalidGate;
  bool value = false;
};

/// Result of a PODEM run: PI values (kX = unconstrained, free for fill).
struct PodemResult {
  std::vector<logicsim::Tern> pi_values;  ///< indexed like Netlist::inputs()
  std::size_t backtracks = 0;
};

class ConflictCache;
class ImplicationEngine;

class Podem {
 public:
  /// `conflicts` (optional, built for `nl`) answers calls the solver has
  /// already settled and learns from this solver's searches.
  Podem(const netlist::Netlist& nl, const netlist::Levelization& lev,
        ConflictCache* conflicts = nullptr);
  ~Podem();

  /// Finds PI values satisfying every objective simultaneously.
  /// `pre_assigned` (optional, indexed like inputs()) pins some PIs before
  /// the search - used to couple the two vectors of a delay test.
  ///
  /// std::nullopt has three causes:
  ///   - exhausted: the search tried both values of every decision it
  ///     made.  This is a proof that no PI assignment (with the pins)
  ///     satisfies the objectives;
  ///   - budget abort: more than `max_backtracks` backtracks;
  ///   - dead end: some objective could not be backtraced to a free PI
  ///     (it sits behind a gate the implication leaves at X, such as a
  ///     flip-flop no scan transform has cut), so part of the search space
  ///     was skipped.  Constant gates hold their value, so an objective on
  ///     one is satisfied or conflicts at once.
  /// Only an exhausted search is a proof, and only proofs feed the
  /// ConflictCache's cores: the conflicts of an aborted search become a
  /// core only after a search of them alone is exhausted.  A call some
  /// learned core covers, or one identical to a call that already aborted
  /// (the same objectives in the same order, pins and budget), returns
  /// std::nullopt without searching, which is what the search would have
  /// returned.
  ///
  /// A Podem owns the implication engine it searches with (kept at its
  /// baseline between calls: PIs at X, constants at their value), so
  /// solve() mutates it: never share one Podem across threads.  A
  /// ConflictCache may be shared.
  std::optional<PodemResult> solve(
      std::span<const Objective> objectives, std::size_t max_backtracks = 2000,
      std::span<const logicsim::Tern> pre_assigned = {}) const;

 private:
  struct Search;

  /// One PODEM search from the baseline with `pins` applied; returns the
  /// engine to the baseline.
  Search search(std::span<const Objective> objectives,
                std::span<const logicsim::Tern> pins,
                std::size_t max_backtracks) const;

  /// Learns a core from an exhausted or aborted search: the objectives
  /// that conflicted at its leaves plus the pins, refined by re-solving
  /// the core alone (pins last) until it stops shrinking.  It is recorded
  /// only once some exhausted search proves it; an aborted search's
  /// candidate whose refinement already failed once is not refined again.
  void learn(std::span<const Objective> objectives, const Search& first,
             std::span<const logicsim::Tern> pins,
             std::size_t max_backtracks) const;

  const netlist::Netlist* nl_;
  std::vector<std::int32_t> input_index_;  ///< gate id -> PI position or -1
  ConflictCache* conflicts_;
  std::unique_ptr<ImplicationEngine> engine_;
};

}  // namespace sddd::atpg
