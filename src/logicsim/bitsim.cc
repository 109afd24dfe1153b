#include "logicsim/bitsim.h"

#include <stdexcept>

namespace sddd::logicsim {

using netlist::CellType;
using netlist::Gate;
using netlist::GateId;

namespace {

/// The gate functions over packed words; `in(i)` is fanin pin i's word.
template <typename In>
std::uint64_t eval_words(CellType type, std::size_t n, const In& in) {
  switch (type) {
    case CellType::kBuf:
      return in(0);
    case CellType::kNot:
      return ~in(0);
    case CellType::kAnd:
    case CellType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (std::size_t i = 0; i < n; ++i) acc &= in(i);
      return type == CellType::kAnd ? acc : ~acc;
    }
    case CellType::kOr:
    case CellType::kNor: {
      std::uint64_t acc = 0ULL;
      for (std::size_t i = 0; i < n; ++i) acc |= in(i);
      return type == CellType::kOr ? acc : ~acc;
    }
    case CellType::kXor:
    case CellType::kXnor: {
      std::uint64_t acc = 0ULL;
      for (std::size_t i = 0; i < n; ++i) acc ^= in(i);
      return type == CellType::kXor ? acc : ~acc;
    }
    case CellType::kConst0:
      return 0ULL;
    case CellType::kConst1:
      return ~0ULL;
    case CellType::kInput:
    case CellType::kDff:
      throw std::logic_error("eval_gate_words: non-combinational gate");
  }
  return 0ULL;
}

}  // namespace

std::uint64_t eval_gate_words(CellType type,
                              std::span<const std::uint64_t> fanin_words) {
  return eval_words(type, fanin_words.size(),
                    [&](std::size_t i) { return fanin_words[i]; });
}

BitSimulator::BitSimulator(const netlist::Netlist& nl,
                           const netlist::Levelization& lev)
    : nl_(&nl) {
  if (!nl.frozen()) throw std::logic_error("BitSimulator: netlist not frozen");
  if (nl.dff_count() != 0) {
    throw std::invalid_argument(
        "BitSimulator: sequential netlist - run full_scan_transform first");
  }
  // Gates of one level never read each other, so any order by level is a
  // valid sweep; grouping each level by cell type keeps the evaluation's
  // switch predictable.  A counting sort into (level, type) buckets.
  // Every gate but an input is an op: constants are level-0 ops without
  // fanins that evaluate to their value.
  constexpr std::size_t kTypes =
      static_cast<std::size_t>(CellType::kConst1) + 1;
  const auto bucket = [&](GateId g) {
    return lev.level(g) * kTypes + static_cast<std::size_t>(nl.gate(g).type);
  };
  const auto is_op = [&](GateId g) {
    return nl.gate(g).type != CellType::kInput;
  };
  std::vector<std::uint32_t> next((lev.depth() + 1) * kTypes + 1, 0);
  for (const GateId g : lev.topo_order()) {
    if (is_op(g)) ++next[bucket(g) + 1];
  }
  for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  std::vector<GateId> order(next.back());
  for (const GateId g : lev.topo_order()) {
    if (is_op(g)) order[next[bucket(g)]++] = g;
  }
  program_.fanin_begin.push_back(0);
  for (const GateId g : order) {
    const Gate& gate = nl.gate(g);
    program_.gates.push_back(g);
    program_.types.push_back(gate.type);
    program_.fanins.insert(program_.fanins.end(), gate.fanins.begin(),
                           gate.fanins.end());
    program_.fanin_begin.push_back(
        static_cast<std::uint32_t>(program_.fanins.size()));
  }
}

void BitSimulator::simulate_into(std::span<const std::uint64_t> pi_words,
                                 std::span<std::uint64_t> out) const {
  if (pi_words.size() != nl_->inputs().size()) {
    throw std::invalid_argument("BitSimulator: pi_words size mismatch");
  }
  if (out.size() != nl_->gate_count()) {
    throw std::invalid_argument("BitSimulator: output size mismatch");
  }
  for (std::size_t i = 0; i < pi_words.size(); ++i) {
    out[nl_->inputs()[i]] = pi_words[i];
  }
  const Program& p = program_;
  for (std::size_t op = 0; op < p.gates.size(); ++op) {
    const GateId* fanins = p.fanins.data() + p.fanin_begin[op];
    out[p.gates[op]] =
        eval_words(p.types[op], p.fanin_begin[op + 1] - p.fanin_begin[op],
                   [&](std::size_t i) { return out[fanins[i]]; });
  }
}

std::vector<std::uint64_t> BitSimulator::simulate(
    std::span<const std::uint64_t> pi_words) const {
  std::vector<std::uint64_t> value(nl_->gate_count());
  simulate_into(pi_words, value);
  return value;
}

std::vector<bool> BitSimulator::simulate_single(const Pattern& pattern) const {
  std::vector<std::uint64_t> words(nl_->inputs().size(), 0);
  if (pattern.size() != words.size()) {
    throw std::invalid_argument("BitSimulator: pattern size mismatch");
  }
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    words[i] = pattern[i] ? 1ULL : 0ULL;
  }
  const auto gate_words = simulate(words);
  std::vector<bool> out(gate_words.size());
  for (std::size_t g = 0; g < gate_words.size(); ++g) {
    out[g] = (gate_words[g] & 1ULL) != 0;
  }
  return out;
}

std::vector<std::uint64_t> BitSimulator::pack(
    std::span<const Pattern> patterns) const {
  if (patterns.size() > 64) {
    throw std::invalid_argument("BitSimulator: more than 64 patterns");
  }
  std::vector<std::uint64_t> words(nl_->inputs().size(), 0);
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    if (patterns[k].size() != words.size()) {
      throw std::invalid_argument("BitSimulator: pattern size mismatch");
    }
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (patterns[k][i]) words[i] |= (1ULL << k);
    }
  }
  return words;
}

std::vector<bool> BitSimulator::output_values(
    std::span<const std::uint64_t> gate_words, unsigned bit) const {
  std::vector<bool> out;
  out.reserve(nl_->outputs().size());
  for (const GateId o : nl_->outputs()) {
    out.push_back((gate_words[o] >> bit) & 1ULL);
  }
  return out;
}

}  // namespace sddd::logicsim
