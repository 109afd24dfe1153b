// podem_oracle.h - The reference the compiled PODEM solver is compared
// against.
//
// This is the solver the compiled implication engine replaced: an event
// simulator that reads the netlist's gate records, evaluates each gate
// through logicsim::eval_gate_tern and sweeps every level on each
// assignment, under the same depth-first PODEM search (objectives
// backtraced through X inputs to a free PI, both values of each decision,
// a backtrack budget).  It keeps no cache, and it builds the objective
// sets of PathDelayAtpg::sensitize itself, so a rule dropped from
// src/atpg shows up as a mismatch.  Like the old solver it leaves constant
// gates at X; it is a reference only on netlists without constants, which
// covers every stand-in.  It is the one cache-free reference: every Podem
// answers through a ConflictCache, and its contract is identity with this
// search (the same outcome, PI values and backtrack count) for every call
// it searches, and no oracle test for every call its cache or refutation
// answers unsearched.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "atpg/podem.h"
#include "logicsim/ternary.h"
#include "netlist/cell.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "paths/path.h"

namespace sddd::test_oracle {

/// How an oracle search ended (a cache-free solve has no other outcome).
enum class PodemOutcome { kSat, kExhausted, kAborted, kDeadEnd };

struct OracleSolve {
  PodemOutcome outcome = PodemOutcome::kExhausted;
  std::vector<logicsim::Tern> pi;  ///< the search's PI values at its end
  std::size_t backtracks = 0;
};

/// Event-driven implication over the netlist's gate records: one bucket
/// per level, every level visited on each assignment.
class OracleEventSim {
 public:
  using Trail = std::vector<std::pair<netlist::GateId, logicsim::Tern>>;

  OracleEventSim(const netlist::Netlist& nl, const netlist::Levelization& lev)
      : nl_(&nl),
        lev_(&lev),
        values_(nl.gate_count(), logicsim::Tern::kX),
        queued_(nl.gate_count(), false),
        buckets_(lev.depth() + 1) {
    std::vector<logicsim::Tern> fanin_buf;
    for (const netlist::GateId g : lev.topo_order()) {
      const netlist::Gate& gate = nl.gate(g);
      if (!is_combinational(gate.type)) continue;
      fanin_buf.clear();
      for (const netlist::GateId f : gate.fanins) fanin_buf.push_back(values_[f]);
      values_[g] = eval_gate_tern(gate.type, fanin_buf);
    }
  }

  const std::vector<logicsim::Tern>& values() const { return values_; }

  void assign(netlist::GateId pi, logicsim::Tern v, Trail& trail) {
    if (values_[pi] == v) return;
    trail.emplace_back(pi, values_[pi]);
    values_[pi] = v;
    schedule_fanouts(pi);
    for (std::uint32_t lvl = 1; lvl < buckets_.size(); ++lvl) {
      auto& bucket = buckets_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const netlist::GateId g = bucket[i];
        queued_[g] = false;
        const netlist::Gate& gate = nl_->gate(g);
        fanin_buf_.clear();
        for (const netlist::GateId f : gate.fanins) {
          fanin_buf_.push_back(values_[f]);
        }
        const logicsim::Tern next = eval_gate_tern(gate.type, fanin_buf_);
        if (next != values_[g]) {
          trail.emplace_back(g, values_[g]);
          values_[g] = next;
          schedule_fanouts(g);
        }
      }
      bucket.clear();
    }
  }

  void undo(Trail& trail, std::size_t mark) {
    while (trail.size() > mark) {
      values_[trail.back().first] = trail.back().second;
      trail.pop_back();
    }
  }

 private:
  void schedule_fanouts(netlist::GateId g) {
    for (const netlist::GateId fo : nl_->gate(g).fanouts) {
      if (!queued_[fo] && is_combinational(nl_->gate(fo).type)) {
        queued_[fo] = true;
        buckets_[lev_->level(fo)].push_back(fo);
      }
    }
  }

  const netlist::Netlist* nl_;
  const netlist::Levelization* lev_;
  std::vector<logicsim::Tern> values_;
  std::vector<bool> queued_;
  std::vector<std::vector<netlist::GateId>> buckets_;
  std::vector<logicsim::Tern> fanin_buf_;
};

/// The PODEM search over OracleEventSim, from a fresh all-X simulation on
/// every call.
class OraclePodem {
 public:
  OraclePodem(const netlist::Netlist& nl, const netlist::Levelization& lev)
      : nl_(&nl), lev_(&lev), input_index_(nl.gate_count(), -1) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      input_index_[nl.inputs()[i]] = static_cast<std::int32_t>(i);
    }
  }

  OracleSolve solve(std::span<const atpg::Objective> objectives,
                    std::size_t max_backtracks,
                    std::span<const logicsim::Tern> pins = {}) const {
    using logicsim::Tern;
    using netlist::CellType;
    using netlist::GateId;
    const netlist::Netlist& nl = *nl_;
    OracleEventSim esim(nl, *lev_);
    OracleSolve s;
    s.pi.assign(nl.inputs().size(), Tern::kX);
    std::vector<Tern>& pi = s.pi;
    bool aborted = false;
    bool dead_end = false;
    OracleEventSim::Trail trail;
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (pins[i] == Tern::kX) continue;
      pi[i] = pins[i];
      esim.assign(nl.inputs()[i], pins[i], trail);
    }

    const auto backtrace = [&](const atpg::Objective& obj)
        -> std::optional<std::pair<std::size_t, bool>> {
      const auto& values = esim.values();
      GateId g = obj.gate;
      bool v = obj.value;
      for (std::size_t guard = 0; guard <= nl.gate_count(); ++guard) {
        if (input_index_[g] >= 0) {
          if (pi[static_cast<std::size_t>(input_index_[g])] != Tern::kX) {
            return std::nullopt;
          }
          return std::make_pair(static_cast<std::size_t>(input_index_[g]), v);
        }
        const netlist::Gate& gate = nl.gate(g);
        if (!is_combinational(gate.type) || gate.fanins.empty()) {
          return std::nullopt;
        }
        GateId next = netlist::kInvalidGate;
        bool next_v = v;
        switch (gate.type) {
          case CellType::kBuf:
            next = gate.fanins[0];
            break;
          case CellType::kNot:
            next = gate.fanins[0];
            next_v = !v;
            break;
          case CellType::kAnd:
          case CellType::kNand:
          case CellType::kOr:
          case CellType::kNor: {
            const bool ctrl = controlling_value(gate.type);
            const bool out_if_ctrl = is_inverting(gate.type) ? !ctrl : ctrl;
            const bool want = v == out_if_ctrl ? ctrl : !ctrl;
            for (const GateId f : gate.fanins) {
              if (values[f] == Tern::kX) {
                next = f;
                next_v = want;
                break;
              }
            }
            break;
          }
          case CellType::kXor:
          case CellType::kXnor: {
            bool parity = gate.type == CellType::kXnor;
            bool all_definite = true;
            GateId x_input = netlist::kInvalidGate;
            for (const GateId f : gate.fanins) {
              if (values[f] == Tern::kX) {
                if (x_input == netlist::kInvalidGate) {
                  x_input = f;
                } else {
                  all_definite = false;
                }
              } else {
                parity ^= values[f] == Tern::k1;
              }
            }
            next = x_input;
            next_v = all_definite && x_input != netlist::kInvalidGate
                         ? (parity ^ v)
                         : false;
            break;
          }
          default:
            return std::nullopt;
        }
        if (next == netlist::kInvalidGate) return std::nullopt;
        g = next;
        v = next_v;
      }
      return std::nullopt;
    };

    const auto dfs = [&](auto&& self) -> bool {
      const atpg::Objective* open = nullptr;
      for (const atpg::Objective& obj : objectives) {
        const Tern v = esim.values()[obj.gate];
        if (v == Tern::kX) {
          if (open == nullptr) open = &obj;
        } else if ((v == Tern::k1) != obj.value) {
          return false;
        }
      }
      if (open == nullptr) return true;
      const auto decision = backtrace(*open);
      if (!decision) {
        dead_end = true;
        return false;
      }
      const auto [pos, first_try] = *decision;
      for (const bool val : {first_try, !first_try}) {
        const std::size_t mark = trail.size();
        pi[pos] = val ? Tern::k1 : Tern::k0;
        esim.assign(nl.inputs()[pos], pi[pos], trail);
        if (self(self)) return true;
        esim.undo(trail, mark);
        pi[pos] = Tern::kX;
        if (++s.backtracks > max_backtracks) {
          aborted = true;
          return false;
        }
      }
      return false;
    };

    if (dfs(dfs)) {
      s.outcome = PodemOutcome::kSat;
    } else if (aborted) {
      s.outcome = PodemOutcome::kAborted;
    } else if (dead_end) {
      s.outcome = PodemOutcome::kDeadEnd;
    } else {
      s.outcome = PodemOutcome::kExhausted;
    }
    return s;
  }

 private:
  const netlist::Netlist* nl_;
  const netlist::Levelization* lev_;
  std::vector<std::int32_t> input_index_;
};

/// One PODEM call: objectives and pins (indexed like Netlist::inputs()).
struct PodemQuery {
  std::vector<atpg::Objective> objectives;
  std::vector<logicsim::Tern> pins;
};

/// Position of `path`'s origin among the inputs, or -1 when the path does
/// not start at a primary input (sensitize() makes no call then).
inline std::int32_t origin_position(const netlist::Netlist& nl,
                                    const paths::Path& path) {
  const netlist::GateId origin = paths::path_source(nl, path);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.inputs()[i] == origin) return static_cast<std::int32_t>(i);
  }
  return -1;
}

/// sensitize()'s capture-vector query: every side input of a controlled
/// on-path gate at its non-controlling value, the origin pinned to its
/// final value.
inline PodemQuery sensitize_v2_query(const netlist::Netlist& nl,
                                     const paths::Path& path, bool rising) {
  PodemQuery q;
  for (const netlist::ArcId a : path.arcs) {
    const auto& arc = nl.arc(a);
    const netlist::Gate& gate = nl.gate(arc.gate);
    if (!has_controlling_value(gate.type)) continue;
    for (std::uint32_t p = 0; p < gate.fanins.size(); ++p) {
      if (p != arc.pin) {
        q.objectives.push_back({gate.fanins[p], !controlling_value(gate.type)});
      }
    }
  }
  q.pins.assign(nl.inputs().size(), logicsim::Tern::kX);
  q.pins[static_cast<std::size_t>(origin_position(nl, path))] =
      rising ? logicsim::Tern::k1 : logicsim::Tern::k0;
  return q;
}

/// sensitize()'s launch-vector query given the capture vector's solution:
/// robust tests hold side inputs steady where the on-path input settles
/// non-controlling (or X), and XOR side inputs at their definite capture
/// values; the origin is pinned to its initial value.
inline PodemQuery sensitize_v1_query(const netlist::Netlist& nl,
                                     const netlist::Levelization& lev,
                                     const paths::Path& path, bool rising,
                                     bool robust,
                                     std::span<const logicsim::Tern> v2_pi) {
  using logicsim::Tern;
  PodemQuery q;
  if (robust) {
    const auto val2 = logicsim::TernarySimulator(nl, lev).simulate(v2_pi);
    for (const netlist::ArcId a : path.arcs) {
      const auto& arc = nl.arc(a);
      const netlist::Gate& gate = nl.gate(arc.gate);
      const netlist::GateId on_input = gate.fanins[arc.pin];
      for (std::uint32_t p = 0; p < gate.fanins.size(); ++p) {
        if (p == arc.pin) continue;
        const netlist::GateId side = gate.fanins[p];
        if (has_controlling_value(gate.type)) {
          const bool ctrl = controlling_value(gate.type);
          if (val2[on_input] != (ctrl ? Tern::k1 : Tern::k0)) {
            q.objectives.push_back({side, !ctrl});
          }
        } else if ((gate.type == netlist::CellType::kXor ||
                    gate.type == netlist::CellType::kXnor) &&
                   val2[side] != Tern::kX) {
          q.objectives.push_back({side, val2[side] == Tern::k1});
        }
      }
    }
  }
  q.pins.assign(nl.inputs().size(), Tern::kX);
  q.pins[static_cast<std::size_t>(origin_position(nl, path))] =
      rising ? Tern::k0 : Tern::k1;
  return q;
}

}  // namespace sddd::test_oracle
