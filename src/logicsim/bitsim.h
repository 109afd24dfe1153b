// bitsim.h - Bit-parallel (64 patterns/word) two-valued logic simulation.
//
// The diagnosis flow needs plain logic values in three places:
//   - computing which nets toggle under a two-vector delay test (the
//     transition graph that induces Induced(Path_v), Definition D.4/D.5);
//   - the cause-effect suspect pruning of Algorithm E.1 step 1;
//   - functional sanity checks in tests and the ATPG's pattern validation.
//
// One machine word carries the value of a net under 64 independent patterns,
// so a full-pattern-set simulation is a single topological sweep.  The
// sweep is compiled once per simulator into a flat program (combinational
// gates by level, their cell types and CSR fanin lists) and
// writes into a caller-owned buffer, so repeated sweeps allocate nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace sddd::logicsim {

/// One input assignment: value per primary input, indexed like
/// Netlist::inputs().
using Pattern = std::vector<bool>;

/// A two-vector delay test (launch vector v1, capture vector v2).
struct PatternPair {
  Pattern v1;
  Pattern v2;
};

/// Bit-parallel combinational simulator.  The netlist must be frozen,
/// combinational (full-scan transformed), and is borrowed for the
/// simulator's lifetime.
class BitSimulator {
 public:
  BitSimulator(const netlist::Netlist& nl, const netlist::Levelization& lev);

  /// Simulates up to 64 patterns at once.  `pi_words[i]` holds the values
  /// of primary input i (bit k = pattern k).  Returns one word per gate
  /// (indexed by GateId) with the simulated net values.
  std::vector<std::uint64_t> simulate(std::span<const std::uint64_t> pi_words) const;

  /// simulate() into `out`, which must hold one word per gate.  Every word
  /// of `out` is overwritten.
  void simulate_into(std::span<const std::uint64_t> pi_words,
                     std::span<std::uint64_t> out) const;

  /// Packs bit `bit` of `words` from the single pattern and simulates it;
  /// returns one bool per gate.  Convenience for single-pattern callers.
  std::vector<bool> simulate_single(const Pattern& pattern) const;

  /// Packs up to 64 patterns into PI words (bit k = patterns[k]).
  std::vector<std::uint64_t> pack(std::span<const Pattern> patterns) const;

  /// Extracts the PO values of pattern `bit` from a simulate() result, in
  /// Netlist::outputs() order.
  std::vector<bool> output_values(std::span<const std::uint64_t> gate_words,
                                  unsigned bit) const;

  const netlist::Netlist& netlist() const { return *nl_; }

  /// The compiled sweep: op i evaluates gate `gates[i]` of type `types[i]`
  /// over fanins[fanin_begin[i] .. fanin_begin[i + 1]) (pin order).  Ops
  /// run by level, and by cell type within a level: a topological order.
  /// Every gate except the primary inputs is an op; a constant is one
  /// without fanins and sweeps to all-zeros or all-ones.
  struct Program {
    std::vector<netlist::GateId> gates;
    std::vector<netlist::CellType> types;
    std::vector<std::uint32_t> fanin_begin;
    std::vector<netlist::GateId> fanins;
  };
  const Program& program() const { return program_; }

 private:
  const netlist::Netlist* nl_;
  Program program_;
};

/// Evaluates a single gate function over packed words.  Exposed for reuse
/// by the ternary simulator's completeness checks and by tests.
std::uint64_t eval_gate_words(netlist::CellType type,
                              std::span<const std::uint64_t> fanin_words);

}  // namespace sddd::logicsim
