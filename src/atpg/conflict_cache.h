// conflict_cache.h - Learned false-path conflicts shared across PODEM calls.
//
// Most structurally heavy paths through a fault site are false: their
// sensitization objectives cannot all hold at once (Section H-4's "false
// path aware" longest paths).  PODEM finds that out one call at a time.  A
// ConflictCache remembers what it proved: a *core* is a set of (gate,
// value) objectives that no primary-input assignment satisfies together.
// Pinned primary inputs enter a core as objectives on their PI gates.
// Whenever some core is a subset of a later call's objectives plus pins,
// that call is unsatisfiable too, and Podem::solve returns nullopt without
// searching - exactly what the search would have returned (see podem.h for
// which searches count as proofs).
//
// One cache serves one netlist and is shared by every thread: lookups take
// a shared lock, learning an exclusive one.  What the cache holds depends
// on the order calls arrive in, but no call's answer does.  Its size is
// capped at kMaxBytes; at the cap it stops learning and keeps pruning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <vector>

#include "atpg/podem.h"
#include "netlist/netlist.h"

namespace sddd::atpg {

/// An objective encoded as one integer: gate * 2 + value.
using Literal = std::uint32_t;

inline Literal to_literal(const Objective& obj) {
  return (static_cast<Literal>(obj.gate) << 1U) | (obj.value ? 1U : 0U);
}

class ConflictCache {
 public:
  /// Resident bytes (core literals, core records and the watch index) past
  /// which add() stops learning.
  static constexpr std::size_t kMaxBytes = std::size_t{1} << 20U;

  explicit ConflictCache(const netlist::Netlist& nl);

  ConflictCache(const ConflictCache&) = delete;
  ConflictCache& operator=(const ConflictCache&) = delete;

  /// Gates of the netlist the cache was built for.
  std::size_t gate_count() const { return heads_.size() / 2; }

  /// True when some core is a subset of `query`, a sorted, duplicate-free
  /// literal set (a call's objectives plus its pins).
  bool covers(std::span<const Literal> query) const;

  /// Records `core`, a sorted, duplicate-free literal set proven
  /// unsatisfiable.  Returns false, learning nothing, when the cap is
  /// reached or an existing core already covers it.
  bool add(std::span<const Literal> core);

  struct Stats {
    std::size_t cores = 0;
    std::size_t bytes = 0;
  };
  Stats stats() const;

  /// Every core, as objectives in literal order (tests and diagnostics).
  std::vector<std::vector<Objective>> cores() const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One core: literals_[begin, begin + size).  Each core is watched by
  /// its largest literal, through a singly linked list per literal.
  struct Core {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t next = kNone;  ///< next core watched by the same literal
  };

  bool covers_locked(std::span<const Literal> query) const;

  mutable std::shared_mutex mu_;
  std::vector<std::uint32_t> heads_;  ///< literal -> first watching core
  std::vector<Core> cores_;
  std::vector<Literal> literals_;
  std::size_t bytes_ = 0;
};

}  // namespace sddd::atpg
