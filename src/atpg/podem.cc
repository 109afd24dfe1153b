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

  std::size_t gate_count() const { return type_.size(); }
  Tern value(GateId g) const { return values_[g]; }
  CellType type(GateId g) const { return type_[g]; }
  std::span<const GateId> fanins(GateId g) const {
    return {fanins_.data() + fanin_begin_[g],
            fanins_.data() + fanin_begin_[g + 1]};
  }
  /// Combinational fan-outs only.
  std::span<const GateId> fanouts(GateId g) const {
    return {fanouts_.data() + fanout_begin_[g],
            fanouts_.data() + fanout_begin_[g + 1]};
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

/// How one solve ended.  kPruned, kRepeat and kRefuted never searched: a
/// learned core covered the call, an identical call had already aborted,
/// or the call's own literals implied a contradiction.
enum class Outcome {
  kSat, kExhausted, kAborted, kDeadEnd, kPruned, kRepeat, kRefuted
};

/// Calls and ns per outcome (atpg.podem.<outcome>[_ns]).  With a shared
/// ConflictCache they depend on the thread schedule, so they stay out of
/// every byte-identity check.
struct OutcomeCounters {
  obs::Counter* calls;
  obs::Counter* ns;
};

OutcomeCounters outcome_counters(Outcome o) {
  static const std::array<OutcomeCounters, 7> counters = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const auto pair = [&reg](const std::string& name) {
      return OutcomeCounters{&reg.register_counter(name),
                             &reg.register_counter(name + "_ns")};
    };
    return std::array<OutcomeCounters, 7>{
        pair("atpg.podem.sat"),      pair("atpg.podem.exhausted"),
        pair("atpg.podem.aborted"),  pair("atpg.podem.dead_end"),
        pair("atpg.podem.pruned"),   pair("atpg.podem.repeat"),
        pair("atpg.podem.refuted")};
  }();
  return counters[static_cast<std::size_t>(o)];
}

/// Status of an objective set under the current implication values.
enum class Status { kSatisfied, kConflict, kOpen };

Status check(std::span<const Objective> objectives,
             const ImplicationEngine& engine, const Objective** first_open) {
  Status st = Status::kSatisfied;
  *first_open = nullptr;
  for (const Objective& obj : objectives) {
    const Tern v = engine.value(obj.gate);
    if (v == Tern::kX) {
      if (*first_open == nullptr) *first_open = &obj;
      st = Status::kOpen;
    } else if ((v == Tern::k1) != obj.value) {
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

/// Budgets the abort memo can key: every key value is 32 bits wide.
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

}  // namespace

/// Unit propagation of a call's own literals through every gate's
/// clauses, in both directions, over the engine's compiled netlist and
/// from its baseline:
///   - AND/NAND/OR/NOR: a controlling input forces the controlled output
///     and inputs all non-controlling force the other value; a
///     non-controlled output forces every input non-controlling, and a
///     controlled output with one input still open (the others
///     non-controlling) forces that input to the controlling value;
///   - NOT/BUF: either pin forces the other;
///   - XOR/XNOR: the last open pin, output or input, takes the parity.
/// Constants hold their baseline value; PIs, flip-flops and other sources
/// are free.  No decision is made, so a contradiction holds under every
/// PI assignment.  Every implied value keeps its reason (the gate whose
/// clause implied it, and the one pin that implication rests on or all of
/// the gate's other pins), so a contradiction is traced back to the call
/// literals it rests on.  The arrays are per gate and reused; between
/// calls every gate holds its baseline value.
class Refuter {
 public:
  /// `engine` must be at its baseline whenever refute() runs.
  explicit Refuter(const ImplicationEngine& engine)
      : engine_(&engine),
        values_(engine.gate_count()),
        reason_(engine.gate_count()),
        pin_(engine.gate_count()),
        seen_(engine.gate_count(), 0) {
    for (GateId g = 0; g < values_.size(); ++g) values_[g] = engine.value(g);
  }

  /// Propagates the objectives in call order, then the pins (one literal
  /// per pinned PI, on `inputs[i]`).  On a contradiction returns true and
  /// sets `core` to the sorted, duplicate-free literals it rests on.
  bool refute(std::span<const Objective> objectives, std::span<const Tern> pins,
              std::span<const GateId> inputs, std::vector<Literal>& core) {
    const bool refuted = [&] {
      for (const Objective& obj : objectives) {
        if (!assume(obj.gate, from_bool(obj.value))) return true;
      }
      for (std::size_t i = 0; i < pins.size(); ++i) {
        if (pins[i] != Tern::kX && !assume(inputs[i], pins[i])) return true;
      }
      return false;
    }();
    if (refuted) explain(core);
    for (const GateId g : trail_) {
      values_[g] = Tern::kX;
      seen_[g] = 0;
    }
    trail_.clear();
    head_ = 0;
    return refuted;
  }

 private:
  /// reason_ of a call literal, and pin_ of an implication that rests on
  /// all of its gate's other pins.
  static constexpr GateId kCall = netlist::kInvalidGate;
  static constexpr GateId kAllPins = netlist::kInvalidGate;

  static Tern flip(Tern v) { return v == Tern::k1 ? Tern::k0 : Tern::k1; }

  /// A call literal: false when it contradicts what earlier ones implied.
  bool assume(GateId g, Tern v) {
    if (values_[g] == v) return true;
    if (values_[g] != Tern::kX) {
      conflict_ = {kCall, kAllPins, g};
      return false;
    }
    set(g, v, kCall, kAllPins);
    return propagate();
  }

  void set(GateId g, Tern v, GateId owner, GateId pin) {
    values_[g] = v;
    reason_[g] = owner;
    pin_[g] = pin;
    trail_.push_back(g);
  }

  /// g takes v by a clause of `owner`; false when g already holds the
  /// other value.
  bool imply(GateId g, Tern v, GateId owner, GateId pin) {
    if (values_[g] == v) return true;
    if (values_[g] != Tern::kX) {
      conflict_ = {owner, pin, g};
      return false;
    }
    set(g, v, owner, pin);
    return true;
  }

  /// Applies the clauses of every gate each new value is a pin of.
  bool propagate() {
    while (head_ < trail_.size()) {
      const GateId g = trail_[head_++];
      if (!clauses(g)) return false;
      for (const GateId fo : engine_->fanouts(g)) {
        if (!clauses(fo)) return false;
      }
    }
    return true;
  }

  /// The clauses of gate g; false on a contradiction.
  bool clauses(GateId g) {
    const std::span<const GateId> in = engine_->fanins(g);
    const CellType type = engine_->type(g);
    switch (type) {
      case CellType::kBuf:
      case CellType::kNot: {
        const bool inv = type == CellType::kNot;
        const Tern a = values_[in[0]];
        if (a != Tern::kX) return imply(g, inv ? flip(a) : a, g, kAllPins);
        const Tern y = values_[g];
        if (y != Tern::kX) return imply(in[0], inv ? flip(y) : y, g, kAllPins);
        return true;
      }
      case CellType::kAnd:
      case CellType::kNand:
      case CellType::kOr:
      case CellType::kNor: {
        const Tern ctrl = from_bool(controlling_value(type));
        const Tern controlled =
            from_bool(controlling_value(type) != is_inverting(type));
        std::size_t open = 0;
        GateId last_open = netlist::kInvalidGate;
        for (const GateId f : in) {
          const Tern v = values_[f];
          if (v == ctrl) return imply(g, controlled, g, f);
          if (v == Tern::kX) {
            ++open;
            last_open = f;
          }
        }
        if (open == 0) return imply(g, flip(controlled), g, kAllPins);
        const Tern y = values_[g];
        if (y == flip(controlled)) {
          for (const GateId f : in) {
            if (values_[f] == Tern::kX) set(f, flip(ctrl), g, g);
          }
        } else if (y == controlled && open == 1) {
          return imply(last_open, ctrl, g, kAllPins);
        }
        return true;
      }
      case CellType::kXor:
      case CellType::kXnor: {
        // The output and the inputs XOR to 1 for XNOR, to 0 for XOR.
        bool parity = type == CellType::kXnor;
        std::size_t open = 0;
        GateId last_open = netlist::kInvalidGate;
        const auto pin = [&](GateId p) {
          const Tern v = values_[p];
          if (v == Tern::kX) {
            ++open;
            last_open = p;
          } else {
            parity ^= v == Tern::k1;
          }
        };
        pin(g);
        for (const GateId f : in) pin(f);
        if (open == 1) return imply(last_open, from_bool(parity), g, kAllPins);
        if (open == 0 && parity) {
          conflict_ = {g, kAllPins, g};
          return false;
        }
        return true;
      }
      default:
        return true;  // sources and constants have no clauses
    }
  }

  /// Queues gate g for explain() when a call literal put it on the trail
  /// (baseline values hold under every assignment and need no reason).
  void mark(GateId g, std::size_t& pending) {
    if (seen_[g] != 0 || engine_->value(g) != Tern::kX) return;
    seen_[g] = 1;
    ++pending;
  }

  void mark_pins(GateId owner, std::size_t& pending) {
    mark(owner, pending);
    for (const GateId f : engine_->fanins(owner)) mark(f, pending);
  }

  /// The call literals the contradiction rests on: walks the reasons back
  /// from the conflict's gates, latest first, so a gate's reasons are
  /// queued before the walk reaches them.
  void explain(std::vector<Literal>& core) {
    core.clear();
    std::size_t pending = 0;
    if (conflict_.owner == kCall) {
      // The call literal is the value the gate does not hold.
      const GateId g = conflict_.gate;
      core.push_back(to_literal(Objective{g, values_[g] == Tern::k0}));
      mark(g, pending);
    } else if (conflict_.pin == kAllPins) {
      mark_pins(conflict_.owner, pending);
    } else {
      mark(conflict_.pin, pending);
      mark(conflict_.gate, pending);
    }
    for (std::size_t i = trail_.size(); i-- > 0 && pending > 0;) {
      const GateId g = trail_[i];
      if (seen_[g] == 0) continue;
      --pending;
      if (reason_[g] == kCall) {
        core.push_back(to_literal(Objective{g, values_[g] == Tern::k1}));
      } else if (pin_[g] == kAllPins) {
        mark_pins(reason_[g], pending);
      } else {
        mark(pin_[g], pending);
      }
    }
    std::sort(core.begin(), core.end());
    core.erase(std::unique(core.begin(), core.end()), core.end());
  }

  /// The clause that failed: the gate owning it (kCall for a call
  /// literal), the pin its implication rested on, and the gate that would
  /// have taken both values.
  struct Conflict {
    GateId owner = kCall;
    GateId pin = kAllPins;
    GateId gate = netlist::kInvalidGate;
  };

  const ImplicationEngine* engine_;
  std::vector<Tern> values_;
  std::vector<GateId> reason_;  ///< owner of the implying clause, or kCall
  std::vector<GateId> pin_;     ///< the one pin it rests on, or kAllPins
  std::vector<std::uint8_t> seen_;
  std::vector<GateId> trail_;  ///< gates off their baseline, in order
  std::size_t head_ = 0;       ///< next trail entry to propagate
  Conflict conflict_;
};

struct Podem::Search {
  Outcome outcome = Outcome::kExhausted;
  std::vector<Tern> pi;
  std::size_t backtracks = 0;
};

Podem::Podem(const Netlist& nl, const netlist::Levelization& lev,
             ConflictCache* conflicts)
    : nl_(&nl),
      own_conflicts_(conflicts == nullptr ? std::make_unique<ConflictCache>(nl)
                                          : nullptr),
      conflicts_(conflicts == nullptr ? own_conflicts_.get() : conflicts),
      engine_(std::make_unique<ImplicationEngine>(nl, lev)),
      refuter_(std::make_unique<Refuter>(*engine_)) {
  if (conflicts_->gate_count() != nl.gate_count()) {
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
    switch (check(objectives, engine, &open)) {
      case Status::kConflict:
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
  if (conflicts_->covers(query_literals(objectives, pre_assigned, nl))) {
    count(Outcome::kPruned);
    return std::nullopt;
  }
  std::vector<std::uint32_t> key;
  if (max_backtracks <= kMaxMemoBudget) {
    key = query_key(objectives, pre_assigned, max_backtracks, nl);
    if (conflicts_->refused(key)) {
      count(Outcome::kRepeat);
      return std::nullopt;
    }
  }
  std::vector<Literal> core;
  if (refuter_->refute(objectives, pre_assigned, nl.inputs(), core)) {
    conflicts_->add(core);
    count(Outcome::kRefuted);
    return std::nullopt;
  }
  Search s = search(objectives, pre_assigned, max_backtracks);
  count(s.outcome);
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
