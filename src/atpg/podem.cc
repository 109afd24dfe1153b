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

/// Event-driven incremental implication, compiled once per Podem.
/// Assigning one PI re-evaluates only its affected fan-out cone, level by
/// level from the lowest to the highest level it scheduled, recording
/// every changed gate on a trail so the assignment can be undone in
/// O(changes).  The netlist is flattened into CSR fan-in and fan-out
/// arrays (fan-outs hold combinational gates only), flat cell-type and
/// level arrays, byte queue flags and one queue segment per level, and each
/// gate's ternary function is evaluated inline.  A Podem keeps it at its
/// baseline between solves: PIs at X, constants at their value and every
/// combinational gate implied from those, so a solve costs only the gates
/// its own assignments touch.
class ImplicationEngine {
 public:
  /// One (gate, previous value) undo record.
  using Trail = std::vector<std::pair<GateId, Tern>>;

  ImplicationEngine(const Netlist& nl, const netlist::Levelization& lev)
      : type_(nl.gate_count()),
        level_(nl.gate_count()),
        fanin_begin_(nl.gate_count() + 1, 0),
        fanout_begin_(nl.gate_count() + 1, 0),
        values_(nl.gate_count(), Tern::kX),
        queued_(nl.gate_count(), 0),
        bucket_begin_(lev.depth() + 2, 0),
        bucket_size_(lev.depth() + 1, 0) {
    const std::size_t n = nl.gate_count();
    for (GateId g = 0; g < n; ++g) {
      const Gate& gate = nl.gate(g);
      type_[g] = gate.type;
      level_[g] = lev.level(g);
      fanins_.insert(fanins_.end(), gate.fanins.begin(), gate.fanins.end());
      fanin_begin_[g + 1] = static_cast<std::uint32_t>(fanins_.size());
      for (const GateId fo : gate.fanouts) {
        if (is_combinational(nl.gate(fo).type)) fanouts_.push_back(fo);
      }
      fanout_begin_[g + 1] = static_cast<std::uint32_t>(fanouts_.size());
      if (is_combinational(gate.type)) ++bucket_begin_[level_[g] + 1];
    }
    // A gate is queued at most once per propagation, so each level's
    // segment holds at most that level's combinational gates.
    for (std::size_t l = 1; l < bucket_begin_.size(); ++l) {
      bucket_begin_[l] += bucket_begin_[l - 1];
    }
    queue_.resize(bucket_begin_.back());
    for (const GateId g : lev.topo_order()) {
      if (type_[g] == CellType::kConst0) values_[g] = Tern::k0;
      if (type_[g] == CellType::kConst1) values_[g] = Tern::k1;
      if (is_combinational(type_[g])) values_[g] = eval(g);
    }
  }

  Tern value(GateId g) const { return values_[g]; }
  CellType type(GateId g) const { return type_[g]; }
  std::span<const GateId> fanins(GateId g) const {
    return {fanins_.data() + fanin_begin_[g],
            fanins_.data() + fanin_begin_[g + 1]};
  }

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
  static constexpr std::uint32_t kNoLevel = ~std::uint32_t{0};

  /// AND/NAND/OR/NOR: a controlling input forces `out_if_ctrl`.
  Tern controlled(std::span<const GateId> in, Tern ctrl,
                  Tern out_if_ctrl) const {
    bool any_x = false;
    for (const GateId f : in) {
      const Tern v = values_[f];
      if (v == ctrl) return out_if_ctrl;
      any_x |= v == Tern::kX;
    }
    if (any_x) return Tern::kX;
    return out_if_ctrl == Tern::k1 ? Tern::k0 : Tern::k1;
  }

  /// The ternary function of combinational gate `g` over current values
  /// (logicsim::eval_gate_tern's algebra).
  Tern eval(GateId g) const {
    const std::span<const GateId> in = fanins(g);
    switch (type_[g]) {
      case CellType::kBuf:
        return values_[in[0]];
      case CellType::kNot: {
        const Tern v = values_[in[0]];
        if (v == Tern::kX) return Tern::kX;
        return v == Tern::k1 ? Tern::k0 : Tern::k1;
      }
      case CellType::kAnd:
        return controlled(in, Tern::k0, Tern::k0);
      case CellType::kNand:
        return controlled(in, Tern::k0, Tern::k1);
      case CellType::kOr:
        return controlled(in, Tern::k1, Tern::k1);
      case CellType::kNor:
        return controlled(in, Tern::k1, Tern::k0);
      case CellType::kXor:
      case CellType::kXnor: {
        bool acc = type_[g] == CellType::kXnor;
        for (const GateId f : in) {
          const Tern v = values_[f];
          if (v == Tern::kX) return Tern::kX;
          acc ^= v == Tern::k1;
        }
        return acc ? Tern::k1 : Tern::k0;
      }
      default:
        return values_[g];  // sources are never scheduled
    }
  }

  void schedule_fanouts(GateId g) {
    for (std::uint32_t k = fanout_begin_[g]; k < fanout_begin_[g + 1]; ++k) {
      const GateId fo = fanouts_[k];
      if (queued_[fo] != 0) continue;
      queued_[fo] = 1;
      const std::uint32_t lvl = level_[fo];
      queue_[bucket_begin_[lvl] + bucket_size_[lvl]++] = fo;
      lo_ = std::min(lo_, lvl);
      hi_ = std::max(hi_, lvl);
    }
  }

  /// Fan-outs sit above their fan-ins, so a level's segment is complete
  /// once every lower level has run, and evaluating it can only schedule
  /// higher levels.
  void propagate(Trail& trail) {
    for (std::uint32_t lvl = lo_; lvl <= hi_; ++lvl) {
      const GateId* bucket = queue_.data() + bucket_begin_[lvl];
      for (std::uint32_t i = 0; i < bucket_size_[lvl]; ++i) {
        const GateId g = bucket[i];
        queued_[g] = 0;
        const Tern next = eval(g);
        if (next != values_[g]) {
          trail.emplace_back(g, values_[g]);
          values_[g] = next;
          schedule_fanouts(g);
        }
      }
      bucket_size_[lvl] = 0;
    }
    lo_ = kNoLevel;
    hi_ = 0;
  }

  std::vector<CellType> type_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<GateId> fanins_;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<GateId> fanouts_;
  std::vector<Tern> values_;
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint32_t> bucket_begin_;  ///< per level, into queue_
  std::vector<std::uint32_t> bucket_size_;   ///< per level, gates queued
  std::vector<GateId> queue_;
  std::uint32_t lo_ = kNoLevel;  ///< lowest level scheduled
  std::uint32_t hi_ = 0;         ///< highest level scheduled
};

namespace {

Tern from_bool(bool b) { return b ? Tern::k1 : Tern::k0; }

/// How one solve ended.  kPruned and kRepeat never searched: a learned
/// core covered the call, or an identical call had already aborted.
enum class Outcome { kSat, kExhausted, kAborted, kDeadEnd, kPruned, kRepeat };

/// Calls and ns per outcome (atpg.podem.<outcome>[_ns]).  With a shared
/// ConflictCache they depend on the thread schedule, so they stay out of
/// every byte-identity check.
struct OutcomeCounters {
  obs::Counter* calls;
  obs::Counter* ns;
};

OutcomeCounters outcome_counters(Outcome o) {
  static const std::array<OutcomeCounters, 6> counters = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const auto pair = [&reg](const std::string& name) {
      return OutcomeCounters{&reg.register_counter(name),
                             &reg.register_counter(name + "_ns")};
    };
    return std::array<OutcomeCounters, 6>{
        pair("atpg.podem.sat"),      pair("atpg.podem.exhausted"),
        pair("atpg.podem.aborted"),  pair("atpg.podem.dead_end"),
        pair("atpg.podem.pruned"),   pair("atpg.podem.repeat")};
  }();
  return counters[static_cast<std::size_t>(o)];
}

/// Learning time; the attempts that proved nothing (an aborted call whose
/// candidate the refinement search did not exhaust) and their share of
/// it; and the attempts skipped because the same refinement had already
/// failed.
struct LearnCounters {
  obs::Counter& ns;
  obs::Counter& unproven;
  obs::Counter& unproven_ns;
  obs::Counter& unproven_skipped;
};

LearnCounters& learn_counters() {
  static LearnCounters c = [] {
    auto& reg = obs::MetricsRegistry::instance();
    return LearnCounters{reg.register_counter("atpg.conflict.learn_ns"),
                         reg.register_counter("atpg.conflict.unproven"),
                         reg.register_counter("atpg.conflict.unproven_ns"),
                         reg.register_counter("atpg.conflict.unproven_skipped")};
  }();
  return c;
}

/// Backtrack budget of a refinement search (see Podem::learn).
constexpr std::size_t kRefineBacktracks = 100;

/// Status of an objective set under the current implication values.
enum class Status { kSatisfied, kConflict, kOpen };

/// On kConflict, `*conflict` is the index of the first objective whose
/// definite value contradicts it.
Status check(std::span<const Objective> objectives,
             const ImplicationEngine& engine, const Objective** first_open,
             std::size_t* conflict) {
  Status st = Status::kSatisfied;
  *first_open = nullptr;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const Objective& obj = objectives[i];
    const Tern v = engine.value(obj.gate);
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

Literal pin_literal(const Netlist& nl, std::size_t i, Tern pin) {
  return to_literal(Objective{nl.inputs()[i], pin == Tern::k1});
}

/// Sorted, duplicate-free literals of `objectives` plus the pins.
std::vector<Literal> query_literals(std::span<const Objective> objectives,
                                    std::span<const Tern> pins,
                                    const Netlist& nl) {
  std::vector<Literal> lits;
  lits.reserve(objectives.size() + 1);
  for (const Objective& obj : objectives) lits.push_back(to_literal(obj));
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] != Tern::kX) lits.push_back(pin_literal(nl, i, pins[i]));
  }
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  return lits;
}

/// Budgets the memos can key: every key value is 32 bits wide.
constexpr std::size_t kMaxMemoBudget = 0xFFFFFFFFU;

/// The abort memo's key of a solve: its budget, its objective count, its
/// objective literals in call order, then the literal of every pinned PI
/// in input order.  A search from the baseline is a function of exactly
/// these.
std::vector<std::uint32_t> query_key(std::span<const Objective> objectives,
                                     std::span<const Tern> pins,
                                     std::size_t budget, const Netlist& nl) {
  std::vector<std::uint32_t> key;
  key.reserve(objectives.size() + 3);
  key.push_back(static_cast<std::uint32_t>(budget));
  key.push_back(static_cast<std::uint32_t>(objectives.size()));
  for (const Objective& obj : objectives) key.push_back(to_literal(obj));
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] != Tern::kX) key.push_back(pin_literal(nl, i, pins[i]));
  }
  return key;
}

/// The candidate memo's key of a refinement search: its budget, then the
/// candidate's literals in search order.
std::vector<std::uint32_t> candidate_key(std::span<const Objective> candidate,
                                         std::size_t budget) {
  std::vector<std::uint32_t> key;
  key.reserve(candidate.size() + 1);
  key.push_back(static_cast<std::uint32_t>(budget));
  for (const Objective& obj : candidate) key.push_back(to_literal(obj));
  return key;
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
      conflicts_(conflicts),
      engine_(std::make_unique<ImplicationEngine>(nl, lev)) {
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
  ImplicationEngine& engine = *engine_;
  Search s;
  s.pi.assign(nl.inputs().size(), Tern::kX);
  s.conflicted.assign(objectives.size(), 0);
  std::vector<Tern>& pi = s.pi;
  bool aborted = false;
  bool dead_end = false;

  ImplicationEngine::Trail trail;
  // Whatever happens, hand the engine back at its baseline.
  struct Restore {
    ImplicationEngine& engine;
    ImplicationEngine::Trail& trail;
    ~Restore() { engine.undo(trail, 0); }
  } restore{engine, trail};
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] == Tern::kX) continue;
    pi[i] = pins[i];
    engine.assign(nl.inputs()[i], pins[i], trail);
  }

  // Backtrace an open objective through X-valued gates to an unassigned PI,
  // returning (pi position, value to try).
  const auto backtrace = [&](const Objective& obj)
      -> std::optional<std::pair<std::size_t, bool>> {
    GateId g = obj.gate;
    bool v = obj.value;
    for (std::size_t guard = 0; guard <= nl.gate_count(); ++guard) {
      if (input_index_[g] >= 0) {
        if (pi[static_cast<std::size_t>(input_index_[g])] != Tern::kX) {
          return std::nullopt;  // objective hinges on an already-pinned PI
        }
        return std::make_pair(static_cast<std::size_t>(input_index_[g]), v);
      }
      const CellType type = engine.type(g);
      const std::span<const GateId> fanins = engine.fanins(g);
      if (!is_combinational(type) || fanins.empty()) {
        return std::nullopt;  // a source the implication leaves at X
      }
      // Map the required output value to a required input value and pick
      // an X input to pursue.
      GateId next = netlist::kInvalidGate;
      bool next_v = v;
      switch (type) {
        case CellType::kBuf:
          next = fanins[0];
          next_v = v;
          break;
        case CellType::kNot:
          next = fanins[0];
          next_v = !v;
          break;
        case CellType::kAnd:
        case CellType::kNand:
        case CellType::kOr:
        case CellType::kNor: {
          const bool ctrl = controlling_value(type);
          const bool inv = is_inverting(type);
          // Output value when a controlling input is present:
          //   AND -> 0, NAND -> 1, OR -> 1, NOR -> 0.
          const bool out_if_ctrl = inv ? !ctrl : ctrl;
          const bool need_some_ctrl = (v == out_if_ctrl);
          const bool want = need_some_ctrl ? ctrl : !ctrl;
          for (const GateId f : fanins) {
            if (engine.value(f) == Tern::kX) {
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
          bool parity = (type == CellType::kXnor);
          bool all_definite = true;
          GateId x_input = netlist::kInvalidGate;
          for (const GateId f : fanins) {
            const Tern fv = engine.value(f);
            if (fv == Tern::kX) {
              if (x_input == netlist::kInvalidGate) {
                x_input = f;
              } else {
                all_definite = false;
              }
            } else {
              parity ^= (fv == Tern::k1);
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
    switch (check(objectives, engine, &open, &conflict)) {
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
      engine.assign(pi_gate, from_bool(val), trail);
      if (self(self)) return true;
      engine.undo(trail, mark);
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
  LearnCounters& counters = learn_counters();
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
  // An unproven candidate is proven by its first refinement search or
  // not at all, and that search is a function of the candidate's order
  // and the budget: one that already failed would fail again.
  std::vector<std::uint32_t> key;
  if (!proven) {
    key = candidate_key(core, budget);
    if (conflicts_->unprovable(key)) {
      counters.unproven_skipped.add(1);
      counters.ns.add(obs::now_ns() - t0);
      return;
    }
  }
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
  if (proven) {
    conflicts_->add(query_literals(core, {}, *nl_));
  } else {
    conflicts_->record_unprovable(key);
  }
  const std::uint64_t ns = obs::now_ns() - t0;
  counters.ns.add(ns);
  if (!proven) {
    counters.unproven.add(1);
    counters.unproven_ns.add(ns);
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
  std::vector<std::uint32_t> key;
  if (conflicts_ != nullptr) {
    if (conflicts_->covers(query_literals(objectives, pre_assigned, nl))) {
      count(Outcome::kPruned);
      return std::nullopt;
    }
    if (max_backtracks <= kMaxMemoBudget) {
      key = query_key(objectives, pre_assigned, max_backtracks, nl);
      if (conflicts_->refused(key)) {
        count(Outcome::kRepeat);
        return std::nullopt;
      }
    }
  }
  Search s = search(objectives, pre_assigned, max_backtracks);
  count(s.outcome);
  if (conflicts_ != nullptr && (s.outcome == Outcome::kExhausted ||
                                s.outcome == Outcome::kAborted)) {
    learn(objectives, s, pre_assigned, max_backtracks);
  }
  if (s.outcome == Outcome::kAborted && !key.empty()) {
    conflicts_->record_refused(key);
  }
  if (s.outcome != Outcome::kSat) return std::nullopt;
  PodemResult result;
  result.pi_values = std::move(s.pi);
  result.backtracks = s.backtracks;
  return result;
}

}  // namespace sddd::atpg
