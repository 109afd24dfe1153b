#include "atpg/podem.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "atpg/conflict_cache.h"
#include "obs/metrics.h"

namespace sddd::atpg {

using logicsim::Tern;
using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::Netlist;

/// Event-driven incremental implication: assigning one PI re-evaluates only
/// its affected fan-out cone, in level order, recording every changed gate
/// on a trail so the assignment can be undone in O(changes).  This is what
/// makes PODEM affordable on the multi-thousand-gate circuits: the naive
/// alternative (full resimulation per decision) costs O(|V|) per backtrack.
/// A Podem keeps one at its all-X baseline between solves, so a solve
/// costs only the gates its own assignments touch.
class EventSim {
 public:
  EventSim(const Netlist& nl, const netlist::Levelization& lev)
      : nl_(&nl),
        lev_(&lev),
        values_(nl.gate_count(), Tern::kX),
        queued_(nl.gate_count(), false),
        buckets_(lev.depth() + 1) {
    std::vector<Tern> fanin_buf;
    for (const GateId g : lev.topo_order()) {
      const Gate& gate = nl.gate(g);
      if (!is_combinational(gate.type)) continue;
      fanin_buf.clear();
      for (const GateId f : gate.fanins) fanin_buf.push_back(values_[f]);
      values_[g] = eval_gate_tern(gate.type, fanin_buf);
    }
  }

  const std::vector<Tern>& values() const { return values_; }

  /// One (gate, previous value) undo record.
  using Trail = std::vector<std::pair<GateId, Tern>>;

  /// Sets PI `pi` to `v` and propagates.  Changed gates (including the PI)
  /// are appended to `trail`.
  void assign(GateId pi, Tern v, Trail& trail) {
    if (values_[pi] == v) return;
    trail.emplace_back(pi, values_[pi]);
    values_[pi] = v;
    schedule_fanouts(pi);
    propagate(trail);
  }

  /// Reverts the values recorded after `mark` (in reverse order).
  void undo(Trail& trail, std::size_t mark) {
    while (trail.size() > mark) {
      values_[trail.back().first] = trail.back().second;
      trail.pop_back();
    }
  }

 private:
  void schedule_fanouts(GateId g) {
    for (const GateId fo : nl_->gate(g).fanouts) {
      if (!queued_[fo] && is_combinational(nl_->gate(fo).type)) {
        queued_[fo] = true;
        buckets_[lev_->level(fo)].push_back(fo);
      }
    }
  }

  void propagate(Trail& trail) {
    for (std::uint32_t lvl = 1; lvl < buckets_.size(); ++lvl) {
      auto& bucket = buckets_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const GateId g = bucket[i];
        queued_[g] = false;
        const Gate& gate = nl_->gate(g);
        fanin_buf_.clear();
        for (const GateId f : gate.fanins) fanin_buf_.push_back(values_[f]);
        const Tern next = eval_gate_tern(gate.type, fanin_buf_);
        if (next != values_[g]) {
          trail.emplace_back(g, values_[g]);
          values_[g] = next;
          schedule_fanouts(g);
        }
      }
      bucket.clear();
    }
  }

  const Netlist* nl_;
  const netlist::Levelization* lev_;
  std::vector<Tern> values_;
  std::vector<bool> queued_;
  std::vector<std::vector<GateId>> buckets_;
  std::vector<Tern> fanin_buf_;
};

namespace {

Tern from_bool(bool b) { return b ? Tern::k1 : Tern::k0; }

/// How one solve ended.  kPruned never searched: a learned core covered it.
enum class Outcome { kSat, kExhausted, kAborted, kDeadEnd, kPruned };

/// Calls and ns per outcome (atpg.podem.<outcome>[_ns]).  With a shared
/// ConflictCache they depend on the thread schedule, so they stay out of
/// every byte-identity check.
struct OutcomeCounters {
  obs::Counter* calls;
  obs::Counter* ns;
};

OutcomeCounters outcome_counters(Outcome o) {
  static const std::array<OutcomeCounters, 5> counters = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const auto pair = [&reg](const std::string& name) {
      return OutcomeCounters{&reg.register_counter(name),
                             &reg.register_counter(name + "_ns")};
    };
    return std::array<OutcomeCounters, 5>{
        pair("atpg.podem.sat"), pair("atpg.podem.exhausted"),
        pair("atpg.podem.aborted"), pair("atpg.podem.dead_end"),
        pair("atpg.podem.pruned")};
  }();
  return counters[static_cast<std::size_t>(o)];
}

obs::Counter& learn_ns_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "atpg.conflict.learn_ns");
  return c;
}

/// Learning attempts that proved nothing (an aborted call whose candidate
/// no refinement search exhausted), and their share of learn_ns.
obs::Counter& unproven_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "atpg.conflict.unproven");
  return c;
}

obs::Counter& unproven_ns_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "atpg.conflict.unproven_ns");
  return c;
}

/// Backtrack budget of a refinement search (see Podem::learn).
constexpr std::size_t kRefineBacktracks = 100;

/// Status of an objective set under the current simulation values.
enum class Status { kSatisfied, kConflict, kOpen };

/// On kConflict, `*conflict` is the index of the first objective whose
/// definite value contradicts it.
Status check(std::span<const Objective> objectives,
             const std::vector<Tern>& values, const Objective** first_open,
             std::size_t* conflict) {
  Status st = Status::kSatisfied;
  *first_open = nullptr;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const Objective& obj = objectives[i];
    const Tern v = values[obj.gate];
    if (v == Tern::kX) {
      if (*first_open == nullptr) *first_open = &obj;
      st = Status::kOpen;
    } else if ((v == Tern::k1) != obj.value) {
      *conflict = i;
      return Status::kConflict;
    }
  }
  return st;
}

/// Sorted, duplicate-free literals of `objectives` plus the pins.
std::vector<Literal> query_literals(std::span<const Objective> objectives,
                                    std::span<const Tern> pins,
                                    const Netlist& nl) {
  std::vector<Literal> lits;
  lits.reserve(objectives.size() + 1);
  for (const Objective& obj : objectives) lits.push_back(to_literal(obj));
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] != Tern::kX) {
      lits.push_back(to_literal(Objective{nl.inputs()[i], pins[i] == Tern::k1}));
    }
  }
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  return lits;
}

}  // namespace

struct Podem::Search {
  Outcome outcome = Outcome::kExhausted;
  std::vector<Tern> pi;
  std::size_t backtracks = 0;
  /// Per objective: 1 when it was the conflict at some leaf.
  std::vector<char> conflicted;
};

Podem::Podem(const Netlist& nl, const netlist::Levelization& lev,
             ConflictCache* conflicts)
    : nl_(&nl),
      lev_(&lev),
      conflicts_(conflicts),
      esim_(std::make_unique<EventSim>(nl, lev)) {
  if (conflicts != nullptr && conflicts->gate_count() != nl.gate_count()) {
    throw std::invalid_argument("Podem: ConflictCache built for another netlist");
  }
  input_index_.assign(nl.gate_count(), -1);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    input_index_[nl.inputs()[i]] = static_cast<std::int32_t>(i);
  }
}

Podem::~Podem() = default;

Podem::Search Podem::search(std::span<const Objective> objectives,
                            std::span<const Tern> pins,
                            std::size_t max_backtracks) const {
  const Netlist& nl = *nl_;
  EventSim& esim = *esim_;
  Search s;
  s.pi.assign(nl.inputs().size(), Tern::kX);
  s.conflicted.assign(objectives.size(), 0);
  std::vector<Tern>& pi = s.pi;
  bool aborted = false;
  bool dead_end = false;

  EventSim::Trail trail;
  // Whatever happens, hand the simulator back at its all-X baseline.
  struct Restore {
    EventSim& esim;
    EventSim::Trail& trail;
    ~Restore() { esim.undo(trail, 0); }
  } restore{esim, trail};
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] == Tern::kX) continue;
    pi[i] = pins[i];
    esim.assign(nl.inputs()[i], pins[i], trail);
  }

  // Backtrace an open objective through X-valued gates to an unassigned PI,
  // returning (pi position, value to try).
  const auto backtrace = [&](const Objective& obj)
      -> std::optional<std::pair<std::size_t, bool>> {
    const auto& values = esim.values();
    GateId g = obj.gate;
    bool v = obj.value;
    for (std::size_t guard = 0; guard <= nl.gate_count(); ++guard) {
      if (input_index_[g] >= 0) {
        if (pi[static_cast<std::size_t>(input_index_[g])] != Tern::kX) {
          return std::nullopt;  // objective hinges on an already-pinned PI
        }
        return std::make_pair(static_cast<std::size_t>(input_index_[g]), v);
      }
      const Gate& gate = nl.gate(g);
      if (!is_combinational(gate.type) || gate.fanins.empty()) {
        return std::nullopt;  // constant or undriven: cannot influence
      }
      // Map the required output value to a required input value and pick
      // an X input to pursue.
      GateId next = netlist::kInvalidGate;
      bool next_v = v;
      switch (gate.type) {
        case CellType::kBuf:
          next = gate.fanins[0];
          next_v = v;
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
          const bool inv = is_inverting(gate.type);
          // Output value when a controlling input is present:
          //   AND -> 0, NAND -> 1, OR -> 1, NOR -> 0.
          const bool out_if_ctrl = inv ? !ctrl : ctrl;
          const bool need_some_ctrl = (v == out_if_ctrl);
          const bool want = need_some_ctrl ? ctrl : !ctrl;
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
          // Choose any X input; aim for the parity completion when all
          // other inputs are definite, else default to 0.
          bool parity = (gate.type == CellType::kXnor);
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
              parity ^= (values[f] == Tern::k1);
            }
          }
          next = x_input;
          next_v = (all_definite && x_input != netlist::kInvalidGate)
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

  // Depth-first decision search on PIs with event-driven implication.
  const auto dfs = [&](auto&& self) -> bool {
    const Objective* open = nullptr;
    std::size_t conflict = 0;
    switch (check(objectives, esim.values(), &open, &conflict)) {
      case Status::kConflict:
        s.conflicted[conflict] = 1;
        return false;
      case Status::kSatisfied:
        return true;
      case Status::kOpen:
        break;
    }
    const auto decision = backtrace(*open);
    if (!decision) {
      dead_end = true;
      return false;
    }
    const auto [pos, first_try] = *decision;
    const GateId pi_gate = nl.inputs()[pos];
    for (const bool val : {first_try, !first_try}) {
      const std::size_t mark = trail.size();
      pi[pos] = from_bool(val);
      esim.assign(pi_gate, from_bool(val), trail);
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
    s.outcome = Outcome::kSat;
  } else if (aborted) {
    s.outcome = Outcome::kAborted;
  } else if (dead_end) {
    s.outcome = Outcome::kDeadEnd;
  } else {
    s.outcome = Outcome::kExhausted;
  }
  return s;
}

void Podem::learn(std::span<const Objective> objectives, const Search& first,
                  std::span<const Tern> pins,
                  std::size_t max_backtracks) const {
  const std::uint64_t t0 = obs::now_ns();
  // Every full PI assignment that agrees with the pins extends one leaf of
  // an exhausted search, and at that leaf some objective marked in
  // `conflicted` already holds the wrong definite value: those objectives
  // plus the pins are unsatisfiable on their own.  An aborted search
  // proves nothing, so its marked objectives plus pins are only a
  // candidate until a search of the candidate alone is exhausted.
  std::vector<Objective> core;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    if (first.conflicted[i] != 0) core.push_back(objectives[i]);
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] != Tern::kX) {
      core.push_back(Objective{nl_->inputs()[i], pins[i] == Tern::k1});
    }
  }
  bool proven = first.outcome == Outcome::kExhausted;
  // Refinement: the same argument on a search of the core alone, with the
  // pins as its last objectives, so a pin that no leaf needs drops out.
  // A search of a few objectives is focused where the call's own search
  // was not, so a smaller budget proves most provable candidates; on the
  // s9234 stand-in the call's full budget cost more learning time than
  // the aborted calls it additionally pruned saved.
  const std::size_t budget = std::min(max_backtracks, kRefineBacktracks);
  for (;;) {
    const Search s = search(core, {}, budget);
    if (s.outcome != Outcome::kExhausted) break;
    proven = true;
    std::vector<Objective> next;
    for (std::size_t i = 0; i < core.size(); ++i) {
      if (s.conflicted[i] != 0) next.push_back(core[i]);
    }
    if (next.size() >= core.size()) break;
    core = std::move(next);
  }
  if (proven) conflicts_->add(query_literals(core, {}, *nl_));
  const std::uint64_t ns = obs::now_ns() - t0;
  learn_ns_counter().add(ns);
  if (!proven) {
    unproven_counter().add(1);
    unproven_ns_counter().add(ns);
  }
}

std::optional<PodemResult> Podem::solve(
    std::span<const Objective> objectives, std::size_t max_backtracks,
    std::span<const Tern> pre_assigned) const {
  const Netlist& nl = *nl_;
  for (const Objective& obj : objectives) {
    if (obj.gate >= nl.gate_count()) {
      throw std::invalid_argument("Podem: objective gate out of range");
    }
  }
  if (!pre_assigned.empty() && pre_assigned.size() != nl.inputs().size()) {
    throw std::invalid_argument("Podem: pre_assigned size mismatch");
  }

  const std::uint64_t t0 = obs::now_ns();
  const auto count = [t0](Outcome o) {
    const OutcomeCounters c = outcome_counters(o);
    c.calls->add(1);
    c.ns->add(obs::now_ns() - t0);
  };
  if (conflicts_ != nullptr &&
      conflicts_->covers(query_literals(objectives, pre_assigned, nl))) {
    count(Outcome::kPruned);
    return std::nullopt;
  }
  Search s = search(objectives, pre_assigned, max_backtracks);
  count(s.outcome);
  if (conflicts_ != nullptr && (s.outcome == Outcome::kExhausted ||
                                s.outcome == Outcome::kAborted)) {
    learn(objectives, s, pre_assigned, max_backtracks);
  }
  if (s.outcome != Outcome::kSat) return std::nullopt;
  PodemResult result;
  result.pi_values = std::move(s.pi);
  result.backtracks = s.backtracks;
  return result;
}

}  // namespace sddd::atpg
