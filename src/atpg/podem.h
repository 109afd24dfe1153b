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
// an assignment changes, level by level.  Before it searches, a call is
// refuted if it can be: unit propagation of its own objectives and pins
// through every gate's clauses, in both directions, proves most false
// paths unsatisfiable without a decision (Larrabee's SAT view of ATPG),
// and the literals such a proof rests on become a core in the solver's
// ConflictCache.
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
class Refuter;

class Podem {
 public:
  /// `conflicts` (built for `nl`) answers calls already settled and learns
  /// from this solver's refutations; it may be shared with other solvers.
  /// Without one, the Podem owns a private cache.
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
  ///
  /// Three steps come before the search, each answered through the
  /// ConflictCache, and each returns std::nullopt unsearched, which is what
  /// the search would have returned (it draws no random numbers, so
  /// skipping it moves nothing):
  ///   - pruned: some learned core is a subset of the objectives plus pins;
  ///   - repeat: an identical call (the same objectives in the same order,
  ///     pins and budget) already aborted;
  ///   - refuted: unit propagation of the objectives and pins alone, in
  ///     call order, through every gate's clauses in both directions,
  ///     reaches a contradiction.  A contradiction implied by the literals
  ///     alone holds under every PI assignment, so no search finds a test.
  ///     The objective and pin literals it rests on are learned as a core.
  /// Searches learn nothing; an aborted one enters the abort memo.
  ///
  /// A Podem owns the implication engine it searches with (kept at its
  /// baseline between calls: PIs at X, constants at their value) and the
  /// refuter's per-gate arrays, so solve() mutates them: never share one
  /// Podem across threads.  A ConflictCache may be shared.
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

  const netlist::Netlist* nl_;
  std::vector<std::int32_t> input_index_;  ///< gate id -> PI position or -1
  std::unique_ptr<ConflictCache> own_conflicts_;  ///< when none was given
  ConflictCache* conflicts_;
  std::unique_ptr<ImplicationEngine> engine_;
  std::unique_ptr<Refuter> refuter_;
};

}  // namespace sddd::atpg
