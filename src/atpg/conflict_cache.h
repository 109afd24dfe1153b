// conflict_cache.h - What PODEM already knows, shared across its calls.
//
// Most structurally heavy paths through a fault site are false: their
// sensitization objectives cannot all hold at once (Section H-4's "false
// path aware" longest paths).  PODEM finds that out one call at a time.  A
// ConflictCache remembers two things for one netlist:
//
//   - cores: sets of (gate, value) objectives that no primary-input
//     assignment satisfies together, each proven by a refutation: unit
//     propagation of a call's own objectives and pins reached a
//     contradiction, and the core is the literals it rests on (see
//     podem.h).  Pinned primary inputs enter a core as objectives on their
//     PI gates.  Whenever some core is a subset of a later call's
//     objectives plus pins, that call is unsatisfiable too, and
//     Podem::solve returns nullopt without searching;
//   - refused queries (the abort memo): calls whose search spent its whole
//     backtrack budget.  A search starts from the same baseline on every
//     call and is a deterministic function of its objectives in call
//     order, its pins and its budget, so an identical later call would
//     abort again; Podem::solve answers it nullopt unsearched.
//
// Every answer is exactly what the search would have returned.  The abort
// memo is an ordered set of whole keys, so a hit is an equal key.
//
// Every Podem answers through a cache: its own, or one shared by the
// caller.  One cache serves one netlist and may be shared by every thread:
// lookups take a shared lock, learning an exclusive one.  What the cache
// holds depends on the order calls arrive in, but no call's answer does.
// Cores are capped at kMaxBytes; at the cap the cache stops learning cores
// and keeps pruning.  The abort memo has its own cap, kMaxMemoBytes on its
// key payload, which never blocks a core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
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
  /// Key payload of the abort memo (4 bytes a key word) past which it stops
  /// recording.
  static constexpr std::size_t kMaxMemoBytes = std::size_t{2} << 20U;

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

  /// The abort memo, keyed by Podem's encoding of a whole query (budget,
  /// objectives in call order, pins): true when a search of exactly this
  /// query already spent its budget.  Past kMaxMemoBytes,
  /// record_refused() records nothing and refused() goes on answering.
  bool refused(const std::vector<std::uint32_t>& query) const;
  void record_refused(const std::vector<std::uint32_t>& query);

  struct Stats {
    std::size_t cores = 0;
    std::size_t refused = 0;  ///< queries in the abort memo
    std::size_t bytes = 0;    ///< cores' resident bytes plus memo payload
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
  std::size_t bytes_ = 0;  ///< cores only: what kMaxBytes caps
  std::set<std::vector<std::uint32_t>> refused_;
  std::size_t memo_bytes_ = 0;  ///< key payload: what kMaxMemoBytes caps
};

}  // namespace sddd::atpg
