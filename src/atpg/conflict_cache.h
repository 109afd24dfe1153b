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
// memo compares whole keys; a hash only picks the slot.
//
// One cache serves one netlist and is shared by every thread: lookups take
// a shared lock, learning an exclusive one.  What the cache holds depends
// on the order calls arrive in, but no call's answer does.  Cores are
// capped at kMaxBytes; at the cap the cache stops learning cores and keeps
// pruning.  The abort memo has its own cap, kMaxMemoBytes, which never
// blocks a core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// An exact set of short keys (sequences of 32-bit values).  Each key is
/// stored whole, as its length and then its values, in a chunked arena:
/// as 16-bit words when every value of the memo fits one (`narrow`), else
/// as 32-bit words.  An open-addressed index of (hash, offset) slots finds
/// it; a hash only picks the slot, and a hit compares the whole key.
/// Resident bytes (arena chunks plus index) never pass `max_bytes`: past
/// it insert() stores nothing and contains() goes on answering.  A key
/// with a value or a length that does not fit a word is never held.  Not
/// thread-safe: ConflictCache locks around it.
class KeyMemo {
 public:
  KeyMemo(bool narrow, std::size_t max_bytes);

  bool contains(std::span<const std::uint32_t> key) const;

  /// Adds `key`; false when it was already held, does not fit, or the
  /// byte budget is spent.
  bool insert(std::span<const std::uint32_t> key);

  std::size_t size() const { return size_; }
  std::size_t bytes() const;

  /// The slot hash of `key`.
  static std::uint32_t hash(std::span<const std::uint32_t> key);

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10U;
  static constexpr std::size_t kFirstSlots = 1024;

  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t ref = kEmpty;  ///< word offset of the entry in the arena
  };

  bool fits(std::span<const std::uint32_t> key) const;
  /// The slot holding `key`, or the empty slot where it would go.
  std::size_t find(std::span<const std::uint32_t> key, std::uint32_t h) const;
  std::uint32_t word(std::uint32_t ref, std::size_t i) const;
  void put(std::uint32_t ref, std::size_t i, std::uint32_t value);
  void rehash(std::size_t slots);

  std::size_t word_bytes_;
  std::size_t chunk_words_;
  std::size_t max_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t used_ = 0;  ///< words used in the last chunk
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

class ConflictCache {
 public:
  /// Resident bytes (core literals, core records and the watch index) past
  /// which add() stops learning.
  static constexpr std::size_t kMaxBytes = std::size_t{1} << 20U;
  /// Resident bytes of the abort memo past which it stops recording.
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
  /// query already spent its budget.
  bool refused(std::span<const std::uint32_t> query) const;
  void record_refused(std::span<const std::uint32_t> query);

  struct Stats {
    std::size_t cores = 0;
    std::size_t refused = 0;  ///< queries in the abort memo
    std::size_t bytes = 0;    ///< resident bytes of cores and the memo
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

  mutable std::shared_mutex memo_mu_;
  KeyMemo refused_;
};

}  // namespace sddd::atpg
