#include "logicsim/ternary.h"

#include <stdexcept>

namespace sddd::logicsim {

using netlist::CellType;
using netlist::Gate;
using netlist::GateId;

Tern tern_not(Tern a) {
  switch (a) {
    case Tern::k0:
      return Tern::k1;
    case Tern::k1:
      return Tern::k0;
    case Tern::kX:
      return Tern::kX;
  }
  return Tern::kX;
}

namespace {

Tern from_bool(bool b) { return b ? Tern::k1 : Tern::k0; }

/// AND/OR family with controlling-value shortcut.
Tern eval_controlled(bool ctrl, bool invert, std::span<const Tern> fanins) {
  const Tern ctrl_v = from_bool(ctrl);
  bool any_x = false;
  for (const Tern v : fanins) {
    if (v == ctrl_v) return from_bool(invert ? !ctrl : ctrl);
    if (v == Tern::kX) any_x = true;
  }
  if (any_x) return Tern::kX;
  // All inputs at the non-controlling value.
  return from_bool(invert ? ctrl : !ctrl);
}

}  // namespace

Tern eval_gate_tern(CellType type, std::span<const Tern> fanins) {
  switch (type) {
    case CellType::kBuf:
      return fanins[0];
    case CellType::kNot:
      return tern_not(fanins[0]);
    case CellType::kAnd:
      return eval_controlled(false, false, fanins);
    case CellType::kNand:
      return eval_controlled(false, true, fanins);
    case CellType::kOr:
      return eval_controlled(true, false, fanins);
    case CellType::kNor:
      return eval_controlled(true, true, fanins);
    case CellType::kXor:
    case CellType::kXnor: {
      bool acc = (type == CellType::kXnor);
      for (const Tern v : fanins) {
        if (v == Tern::kX) return Tern::kX;
        acc ^= (v == Tern::k1);
      }
      return from_bool(acc);
    }
    case CellType::kConst0:
      return Tern::k0;
    case CellType::kConst1:
      return Tern::k1;
    case CellType::kInput:
    case CellType::kDff:
      throw std::logic_error("eval_gate_tern: non-combinational gate");
  }
  return Tern::kX;
}

TernarySimulator::TernarySimulator(const netlist::Netlist& nl,
                                   const netlist::Levelization& lev)
    : nl_(&nl), lev_(&lev) {
  if (nl.dff_count() != 0) {
    throw std::invalid_argument(
        "TernarySimulator: sequential netlist - run full_scan_transform "
        "first");
  }
}

std::vector<Tern> TernarySimulator::simulate(
    std::span<const Tern> pi_values) const {
  std::vector<Tern> values;
  simulate_into(pi_values, values);
  return values;
}

void TernarySimulator::simulate_into(std::span<const Tern> pi_values,
                                     std::vector<Tern>& values) const {
  if (pi_values.size() != nl_->inputs().size()) {
    throw std::invalid_argument("TernarySimulator: pi_values size mismatch");
  }
  values.assign(nl_->gate_count(), Tern::kX);
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    values[nl_->inputs()[i]] = pi_values[i];
  }
  std::vector<Tern> fanin_buf;
  for (const GateId g : lev_->topo_order()) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == CellType::kInput) continue;  // constants evaluate
    fanin_buf.clear();
    for (const GateId f : gate.fanins) fanin_buf.push_back(values[f]);
    values[g] = eval_gate_tern(gate.type, fanin_buf);
  }
}

}  // namespace sddd::logicsim
