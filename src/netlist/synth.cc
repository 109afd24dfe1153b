#include "netlist/synth.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "stats/rng.h"

namespace sddd::netlist {

namespace {

using stats::Rng;

struct ProtoGate {
  CellType type = CellType::kNand;
  std::uint32_t level = 0;
  std::vector<std::uint32_t> fanins;  // node ids (PIs are 0..n_inputs-1)
  std::uint32_t fanout = 0;
};

CellType pick_multi_input_type(const SynthSpec& spec, Rng& rng) {
  if (rng.bernoulli(spec.xor_fraction)) {
    return rng.bernoulli(0.5) ? CellType::kXor : CellType::kXnor;
  }
  const double u = rng.uniform01();
  if (u < 0.38) return CellType::kNand;
  if (u < 0.60) return CellType::kNor;
  if (u < 0.80) return CellType::kAnd;
  return CellType::kOr;
}

/// Distributes `total` gates over levels 1..depth with a mid-heavy profile
/// (wide middle, narrowing cone toward the outputs, like real benchmarks),
/// at least one gate per level, and at most `max_last` gates on the deepest
/// level.
std::vector<std::uint32_t> schedule_levels(std::uint32_t total,
                                           std::uint32_t depth,
                                           std::uint32_t max_last, Rng& rng) {
  std::vector<std::uint32_t> count(depth, 1);
  std::uint32_t placed = depth;
  if (placed > total) {
    throw std::invalid_argument("synthesize: n_gates < depth");
  }
  // Weight of level i (1-based): rises to a plateau then tapers.
  std::vector<double> weight(depth);
  for (std::uint32_t i = 0; i < depth; ++i) {
    const double x = (static_cast<double>(i) + 0.5) / static_cast<double>(depth);
    weight[i] = 0.25 + std::min({x * 4.0, 1.0, (1.0 - x) * 2.5});
    weight[i] = std::max(weight[i], 0.05);
  }
  double wsum = 0.0;
  for (const double w : weight) wsum += w;
  while (placed < total) {
    double u = rng.uniform01() * wsum;
    std::uint32_t pick = 0;
    for (; pick + 1 < depth; ++pick) {
      if (u < weight[pick]) break;
      u -= weight[pick];
    }
    if (pick == depth - 1 && count[pick] >= max_last) pick = depth / 2;
    ++count[pick];
    ++placed;
  }
  return count;
}

}  // namespace

Netlist synthesize(const SynthSpec& spec) {
  if (spec.n_inputs == 0 || spec.n_outputs == 0 || spec.n_gates == 0) {
    throw std::invalid_argument("synthesize: counts must be positive");
  }
  if (spec.depth == 0) throw std::invalid_argument("synthesize: depth >= 1");
  if (spec.n_outputs > spec.n_gates) {
    throw std::invalid_argument("synthesize: n_outputs > n_gates");
  }
  Rng rng(spec.seed, 0x5dddULL);

  const std::uint32_t n_pi = spec.n_inputs;
  const auto per_level =
      schedule_levels(spec.n_gates, spec.depth, spec.n_outputs, rng);

  std::vector<ProtoGate> nodes(n_pi + spec.n_gates);
  for (std::uint32_t i = 0; i < n_pi; ++i) {
    nodes[i].type = CellType::kInput;
    nodes[i].level = 0;
  }

  // Node ids per level, and the subset that still has no fanout (orphans).
  std::vector<std::vector<std::uint32_t>> level_nodes(spec.depth + 1);
  for (std::uint32_t i = 0; i < n_pi; ++i) level_nodes[0].push_back(i);

  // Pool of all node ids at level < L, for uniform "any lower level" picks.
  std::vector<std::uint32_t> lower_pool(level_nodes[0]);

  // Two nodes are "trivially related" when one is a unary gate (NOT/BUF)
  // of the other: feeding both into one gate creates constant or redundant
  // logic, which real benchmark circuits (and any synthesized netlist)
  // avoid and which would riddle the DAG with false paths.
  const auto trivially_related = [&](std::uint32_t a, std::uint32_t b) {
    const auto unary_source = [&](std::uint32_t x) -> std::uint32_t {
      if ((nodes[x].type == CellType::kNot || nodes[x].type == CellType::kBuf) &&
          !nodes[x].fanins.empty()) {
        return nodes[x].fanins[0];
      }
      return x;
    };
    return a == b || unary_source(a) == b || unary_source(b) == a ||
           unary_source(a) == unary_source(b);
  };

  const auto conflicts = [&](std::uint32_t cand,
                             const std::vector<std::uint32_t>& exclude) {
    for (const std::uint32_t e : exclude) {
      if (trivially_related(cand, e)) return true;
    }
    return false;
  };

  const auto pick_fanin = [&](std::uint32_t level,
                              const std::vector<std::uint32_t>& exclude) {
    // Prefer an orphan from the immediately lower level, then any orphan,
    // then anything from lower levels.  Rejection on duplicates and
    // trivially related nodes.
    for (int attempt = 0; attempt < 48; ++attempt) {
      std::uint32_t cand = 0;
      const double u = rng.uniform01();
      if (u < 0.55 && !level_nodes[level - 1].empty()) {
        const auto& pool = level_nodes[level - 1];
        cand = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
      } else {
        cand = lower_pool[rng.below(static_cast<std::uint32_t>(lower_pool.size()))];
      }
      // Bias toward unconsumed nodes to keep the DAG connected.
      if (nodes[cand].fanout > 0 && attempt < 8 && rng.bernoulli(0.6)) continue;
      if (!conflicts(cand, exclude)) return cand;
    }
    // Fall back to the first acceptable node in the lower pool, relaxing
    // the relatedness rule if nothing else is available.
    for (const std::uint32_t cand : lower_pool) {
      if (!conflicts(cand, exclude)) return cand;
    }
    for (const std::uint32_t cand : lower_pool) {
      if (std::find(exclude.begin(), exclude.end(), cand) == exclude.end()) {
        return cand;
      }
    }
    return exclude.empty() ? lower_pool.front() : exclude.front();
  };

  std::uint32_t next = n_pi;
  for (std::uint32_t lvl = 1; lvl <= spec.depth; ++lvl) {
    for (std::uint32_t k = 0; k < per_level[lvl - 1]; ++k) {
      ProtoGate& g = nodes[next];
      g.level = lvl;
      const bool unary = rng.bernoulli(spec.inverter_fraction);
      std::uint32_t arity = 1;
      if (unary) {
        g.type = rng.bernoulli(0.8) ? CellType::kNot : CellType::kBuf;
      } else {
        g.type = pick_multi_input_type(spec, rng);
        arity = rng.bernoulli(spec.fanin3_fraction) ? 3 : 2;
        arity = std::min<std::uint32_t>(
            arity, static_cast<std::uint32_t>(lower_pool.size()));
        arity = std::max<std::uint32_t>(arity, 2);
      }
      for (std::uint32_t pin = 0; pin < arity; ++pin) {
        const std::uint32_t f = pick_fanin(lvl, g.fanins);
        g.fanins.push_back(f);
        ++nodes[f].fanout;
      }
      level_nodes[lvl].push_back(next);
      ++next;
    }
    for (const std::uint32_t id : level_nodes[lvl]) lower_pool.push_back(id);
  }

  // --- Choose primary outputs: deepest orphans first, then deepest gates.
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t id = n_pi; id < nodes.size(); ++id) candidates.push_back(id);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const bool oa = nodes[a].fanout == 0;
                     const bool ob = nodes[b].fanout == 0;
                     if (oa != ob) return oa;  // orphans first
                     return nodes[a].level > nodes[b].level;
                   });
  std::vector<std::uint32_t> outputs(candidates.begin(),
                                     candidates.begin() + spec.n_outputs);

  // --- Mop up remaining orphans: attach each as an extra fanin of a
  // multi-input gate at a strictly higher level, keeping everything on a
  // PI -> PO path.
  std::vector<bool> is_output(nodes.size(), false);
  for (const std::uint32_t o : outputs) is_output[o] = true;
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].fanout > 0 || is_output[id]) continue;
    // Collect multi-input gates above this node's level.
    std::vector<std::uint32_t> targets;
    for (std::uint32_t t = n_pi; t < nodes.size(); ++t) {
      if (nodes[t].level > nodes[id].level && nodes[t].fanins.size() >= 2 &&
          !conflicts(id, nodes[t].fanins)) {
        targets.push_back(t);
      }
    }
    if (targets.empty()) {
      // Deepest-level orphan beyond the PO allotment cannot happen thanks to
      // the max_last cap in schedule_levels; a PI in a 1-level circuit can
      // land here - attach to any multi-input gate.
      for (std::uint32_t t = n_pi; t < nodes.size(); ++t) {
        if (nodes[t].fanins.size() >= 2 &&
            std::find(nodes[t].fanins.begin(), nodes[t].fanins.end(), id) ==
                nodes[t].fanins.end()) {
          targets.push_back(t);
        }
      }
    }
    if (targets.empty()) continue;  // degenerate spec; leave dangling
    const std::uint32_t t =
        targets[rng.below(static_cast<std::uint32_t>(targets.size()))];
    nodes[t].fanins.push_back(id);
    ++nodes[id].fanout;
  }

  // --- Emit. ---
  Netlist nl(spec.name);
  std::vector<GateId> ids(nodes.size(), kInvalidGate);
  for (std::uint32_t i = 0; i < n_pi; ++i) {
    ids[i] = nl.add_input(std::string("I").append(std::to_string(i)));
  }
  for (std::uint32_t id = n_pi; id < nodes.size(); ++id) {
    std::vector<GateId> fanins;
    fanins.reserve(nodes[id].fanins.size());
    for (const std::uint32_t f : nodes[id].fanins) fanins.push_back(ids[f]);
    ids[id] = nl.add_gate(nodes[id].type,
                          std::string("N").append(std::to_string(id)),
                          std::move(fanins));
  }
  for (const std::uint32_t o : outputs) nl.add_output(ids[o]);
  nl.freeze();
  return nl;
}

}  // namespace sddd::netlist
