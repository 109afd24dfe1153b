#include "analysis/analysis_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "analysis/rule.h"
#include "netlist/cell.h"
#include "obs/codec.h"
#include "paths/transition_graph.h"
#include "timing/clark_ssta.h"

namespace sddd::analysis {

using netlist::ArcId;
using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::Netlist;

namespace {

bool valid_id(GateId f, std::size_t n) { return f < n; }

std::uint64_t fnv1a_words(const std::uint64_t* words, std::size_t n) {
  std::uint64_t h = obs::kFnv1aOffset;
  for (std::size_t i = 0; i < n; ++i) h = obs::fnv1a64_word(h, words[i]);
  return h;
}

}  // namespace

NetlistFacts compute_netlist_facts(const Netlist& nl) {
  NetlistFacts facts;
  const std::size_t n = nl.gate_count();

  // Fanout counts from the fanin lists (dangling ids are NET002's report).
  facts.fanout.assign(n, 0);
  for (const Gate& g : nl.gates()) {
    for (const GateId f : g.fanins) {
      if (valid_id(f, n)) ++facts.fanout[f];
    }
  }

  // Source reachability: fixpoint along fanout edges; tolerates cycles.
  // DFF data inputs do not propagate a same-cycle transition.
  facts.reachable.assign(n, 0);
  {
    std::vector<std::vector<GateId>> fanouts(n);
    std::vector<GateId> queue;
    for (GateId g = 0; g < n; ++g) {
      const Gate& gate = nl.gate(g);
      const bool source =
          gate.type == CellType::kInput || gate.type == CellType::kDff;
      if (source) {
        facts.reachable[g] = 1;
        queue.push_back(g);
      }
      if (gate.type == CellType::kDff) continue;
      for (const GateId f : gate.fanins) {
        if (valid_id(f, n)) fanouts[f].push_back(g);
      }
    }
    while (!queue.empty()) {
      const GateId g = queue.back();
      queue.pop_back();
      for (const GateId s : fanouts[g]) {
        if (!facts.reachable[s]) {
          facts.reachable[s] = 1;
          queue.push_back(s);
        }
      }
    }
  }

  // Combinational-cycle back edges via iterative coloring DFS (DFF data
  // edges are cut, matching Levelization's ordering contract).  Control
  // flow - including when the root loop stops exploring - replicates the
  // pre-framework NET001 exactly, so its findings are byte-identical.
  {
    constexpr std::size_t kMaxFindings = 8;
    std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 gray, 2 black
    std::size_t reported = 0;
    for (GateId root = 0; root < n && reported < kMaxFindings; ++root) {
      if (color[root] != 0) continue;
      // Stack of (gate, next fanin index to visit).
      std::vector<std::pair<GateId, std::size_t>> stack;
      stack.emplace_back(root, 0);
      color[root] = 1;
      while (!stack.empty()) {
        auto& [g, next] = stack.back();
        const Gate& gate = nl.gate(g);
        const bool cut = gate.type == CellType::kDff;
        if (cut || next >= gate.fanins.size()) {
          color[g] = 2;
          stack.pop_back();
          continue;
        }
        const GateId f = gate.fanins[next++];
        if (!valid_id(f, n) || color[f] == 2) continue;
        if (color[f] == 1) {
          if (reported++ < kMaxFindings) {
            facts.cycle_back_edges.push_back(NetlistFacts::BackEdge{f, g});
          }
          continue;
        }
        color[f] = 1;
        stack.emplace_back(f, 0);
      }
    }
  }
  return facts;
}

ObsMatrix::ObsMatrix(std::size_t n_arcs, std::size_t n_outputs,
                     std::size_t n_patterns)
    : n_arcs_(n_arcs),
      n_outputs_(n_outputs),
      n_patterns_(n_patterns),
      n_cells_(n_outputs * n_patterns),
      words_per_row_((n_cells_ + 63) / 64),
      words_(n_arcs * words_per_row_, 0) {}

void ObsMatrix::set(ArcId a, std::size_t output, std::size_t pattern) {
  const std::size_t cell = output * n_patterns_ + pattern;
  words_[a * words_per_row_ + (cell >> 6)] |= 1ULL << (cell & 63);
}

bool ObsMatrix::test(ArcId a, std::size_t output, std::size_t pattern) const {
  const std::size_t cell = output * n_patterns_ + pattern;
  return (words_[a * words_per_row_ + (cell >> 6)] >> (cell & 63)) & 1ULL;
}

std::size_t ObsMatrix::row_popcount(ArcId a) const {
  std::size_t count = 0;
  const std::uint64_t* row = words_.data() + a * words_per_row_;
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    count += static_cast<std::size_t>(std::popcount(row[w]));
  }
  return count;
}

std::uint64_t ObsMatrix::row_hash(ArcId a) const {
  return fnv1a_words(words_.data() + a * words_per_row_, words_per_row_);
}

bool ObsMatrix::row_equal(ArcId a, ArcId b) const {
  const std::uint64_t* ra = words_.data() + a * words_per_row_;
  const std::uint64_t* rb = words_.data() + b * words_per_row_;
  return std::equal(ra, ra + words_per_row_, rb);
}

bool ObsMatrix::row_subset(ArcId a, ArcId b) const {
  const std::uint64_t* ra = words_.data() + a * words_per_row_;
  const std::uint64_t* rb = words_.data() + b * words_per_row_;
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    if ((ra[w] & ~rb[w]) != 0) return false;
  }
  return true;
}

namespace {

/// One analytic Clark-SSTA arrival sweep over the pattern's active
/// subgraph, with `defect_arc`'s delay shifted by `delta` (kInvalidArc =
/// baseline).  Transition-mode semantics: a toggling gate combines its
/// active fanin arrivals with Clark max (final value non-controlled) or
/// Clark min (controlled; min(X, Y) = -max(-X, -Y)).
std::vector<timing::GaussianArrival> analytic_sweep(
    const DiagnosabilitySubject& subject, const paths::TransitionGraph& tg,
    ArcId defect_arc, double delta) {
  const Netlist& nl = *subject.netlist;
  const timing::ArcDelayModel& model = *subject.delay_model;
  std::vector<timing::GaussianArrival> arrival(nl.gate_count());
  for (const GateId g : subject.lev->topo_order()) {
    const auto& fanins = tg.active_fanins(g);
    if (fanins.empty()) continue;  // source / non-toggling: arrives at 0
    const bool take_min = tg.rule(g) == paths::ArrivalRule::kMinOverActive;
    bool first = true;
    timing::GaussianArrival acc;
    for (const ArcId a : fanins) {
      const auto& rv = model.arc_rv(a);
      const netlist::Arc& arc = nl.arc(a);
      timing::GaussianArrival in = arrival[nl.gate(arc.gate).fanins[arc.pin]];
      in.mean += rv.mean() + (a == defect_arc ? delta : 0.0);
      const double sigma = rv.stddev();
      in.var += sigma * sigma;
      if (take_min) in.mean = -in.mean;
      if (first) {
        acc = in;
        first = false;
      } else {
        acc = timing::clark_max(acc, in);
      }
    }
    if (take_min) acc.mean = -acc.mean;
    arrival[g] = acc;
  }
  return arrival;
}

/// Flattened per-(output, pattern) analytic criticality increase when
/// `arc` is slowed by `delta`: the DIAG005 signature of its ambiguity
/// group.  `base` holds the per-pattern baseline sweeps.
std::vector<double> analytic_signature(
    const DiagnosabilitySubject& subject,
    const std::vector<paths::TransitionGraph>& tgs,
    const std::vector<std::vector<timing::GaussianArrival>>& base, double clk,
    ArcId arc, double delta) {
  const Netlist& nl = *subject.netlist;
  const std::size_t n_outputs = nl.outputs().size();
  std::vector<double> sig(n_outputs * tgs.size(), 0.0);
  for (std::size_t j = 0; j < tgs.size(); ++j) {
    if (!tgs[j].is_active(arc)) continue;  // defect invisible: E == M
    const auto shifted = analytic_sweep(subject, tgs[j], arc, delta);
    for (std::size_t o = 0; o < n_outputs; ++o) {
      const GateId og = nl.outputs()[o];
      if (!tgs[j].toggles(og)) continue;
      const double p_def = shifted[og].critical_probability(clk);
      const double p_base = base[j][og].critical_probability(clk);
      sig[o * tgs.size() + j] = std::max(p_def - p_base, 0.0);
    }
  }
  return sig;
}

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

}  // namespace

SensitizationFacts compute_sensitization_facts(
    const DiagnosabilitySubject& subject) {
  const Netlist& nl = *subject.netlist;
  if (!nl.frozen()) {
    throw std::invalid_argument(
        "compute_sensitization_facts: netlist must be frozen");
  }
  SensitizationFacts facts;
  facts.n_arcs = nl.arc_count();
  facts.n_outputs = nl.outputs().size();
  facts.n_patterns = subject.patterns.size();
  facts.obs = ObsMatrix(facts.n_arcs, facts.n_outputs, facts.n_patterns);

  // One ternary-sensitization pass per pattern: the backward cone over
  // active arcs of every output fills the observability matrix.  The
  // TransitionGraphs are kept for the analytic separability sweep below.
  std::vector<paths::TransitionGraph> tgs;
  tgs.reserve(facts.n_patterns);
  for (std::size_t j = 0; j < facts.n_patterns; ++j) {
    tgs.emplace_back(*subject.logic_sim, *subject.lev, subject.patterns[j]);
    for (std::size_t o = 0; o < facts.n_outputs; ++o) {
      const GateId og = nl.outputs()[o];
      if (!tgs[j].toggles(og)) continue;
      const auto cone = tgs[j].cone_to_output(og);
      for (ArcId a = 0; a < facts.n_arcs; ++a) {
        if (cone[a]) facts.obs.set(a, o, j);
      }
    }
  }

  // Per-arc pattern coverage and the dead set.
  facts.pattern_coverage.assign(facts.n_arcs, 0);
  std::size_t covered = 0;
  for (ArcId a = 0; a < facts.n_arcs; ++a) {
    std::uint32_t cov = 0;
    for (std::size_t j = 0; j < facts.n_patterns; ++j) {
      for (std::size_t o = 0; o < facts.n_outputs; ++o) {
        if (facts.obs.test(a, o, j)) {
          ++cov;
          break;
        }
      }
    }
    facts.pattern_coverage[a] = cov;
    if (cov == 0) {
      facts.dead_arcs.push_back(a);
    } else {
      ++covered;
    }
  }
  facts.coverage_ratio =
      facts.n_arcs == 0
          ? 1.0
          : static_cast<double>(covered) / static_cast<double>(facts.n_arcs);

  // Equivalence classes of identical nonempty observability rows: hash
  // buckets with full row verification, one pass, no O(n^2) pairing.
  facts.group_of.assign(facts.n_arcs, -1);
  {
    // hash -> list of (representative arc, class index)
    std::unordered_map<std::uint64_t, std::vector<std::pair<ArcId, int>>>
        buckets;
    std::vector<std::vector<ArcId>> classes;
    for (ArcId a = 0; a < facts.n_arcs; ++a) {
      if (facts.pattern_coverage[a] == 0) continue;
      auto& bucket = buckets[facts.obs.row_hash(a)];
      bool placed = false;
      for (auto& [rep, cls] : bucket) {
        if (facts.obs.row_equal(rep, a)) {
          classes[static_cast<std::size_t>(cls)].push_back(a);
          placed = true;
          break;
        }
      }
      if (!placed) {
        bucket.emplace_back(a, static_cast<int>(classes.size()));
        classes.push_back({a});
      }
    }
    // Keep classes with >= 2 members, ordered by first member.
    std::vector<std::size_t> keep;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (classes[c].size() >= 2) keep.push_back(c);
    }
    std::sort(keep.begin(), keep.end(), [&](std::size_t x, std::size_t y) {
      return classes[x].front() < classes[y].front();
    });
    for (const std::size_t c : keep) {
      const int gid = static_cast<int>(facts.groups.size());
      for (const ArcId a : classes[c]) facts.group_of[a] = gid;
      SensitizationFacts::AmbiguityGroup group;
      group.coverage = facts.pattern_coverage[classes[c].front()];
      group.arcs = std::move(classes[c]);
      facts.groups.push_back(std::move(group));
    }
  }

  // Structural dominance among class representatives (every observable arc
  // represents its class; singletons represent themselves).  Sorting by
  // popcount means only popcount(u) < popcount(v) pairs can be strict
  // subsets, halving the scan.
  {
    constexpr std::size_t kMaxReps = 768;
    std::vector<ArcId> reps;
    for (ArcId a = 0; a < facts.n_arcs; ++a) {
      if (facts.pattern_coverage[a] == 0) continue;
      const int gid = facts.group_of[a];
      if (gid < 0 ||
          facts.groups[static_cast<std::size_t>(gid)].arcs.front() == a) {
        reps.push_back(a);
      }
    }
    if (reps.size() > kMaxReps) reps.resize(kMaxReps);
    std::vector<std::size_t> pop(reps.size());
    for (std::size_t i = 0; i < reps.size(); ++i) {
      pop[i] = facts.obs.row_popcount(reps[i]);
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t k = 0; k < reps.size(); ++k) {
        if (pop[i] >= pop[k]) continue;
        if (!facts.obs.row_subset(reps[i], reps[k])) continue;
        if (facts.dominance_found++ <
            SensitizationFacts::kMaxDominancePairs) {
          facts.dominance.push_back(
              SensitizationFacts::DominancePair{reps[i], reps[k]});
        }
      }
    }
  }

  // Redundant patterns: identical static observability columns (the set of
  // (arc, output) pairs the pattern observes), hash-bucketed like the arc
  // classes.
  {
    ObsMatrix cols(static_cast<ArcId>(facts.n_patterns), facts.n_arcs,
                   facts.n_outputs);
    for (ArcId a = 0; a < facts.n_arcs; ++a) {
      for (std::size_t o = 0; o < facts.n_outputs; ++o) {
        for (std::size_t j = 0; j < facts.n_patterns; ++j) {
          if (facts.obs.test(a, o, j)) {
            cols.set(static_cast<ArcId>(j), a, o);
          }
        }
      }
    }
    std::unordered_map<std::uint64_t, std::vector<std::pair<ArcId, int>>>
        buckets;
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t j = 0; j < facts.n_patterns; ++j) {
      const auto ja = static_cast<ArcId>(j);
      auto& bucket = buckets[cols.row_hash(ja)];
      bool placed = false;
      for (auto& [rep, cls] : bucket) {
        if (cols.row_equal(rep, ja)) {
          classes[static_cast<std::size_t>(cls)].push_back(j);
          placed = true;
          break;
        }
      }
      if (!placed) {
        bucket.emplace_back(ja, static_cast<int>(classes.size()));
        classes.push_back({j});
      }
    }
    std::vector<std::size_t> keep;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (classes[c].size() >= 2) keep.push_back(c);
    }
    std::sort(keep.begin(), keep.end(), [&](std::size_t x, std::size_t y) {
      return classes[x].front() < classes[y].front();
    });
    for (const std::size_t c : keep) {
      facts.redundant_patterns.push_back(std::move(classes[c]));
    }
  }

  // Analytic rank-separability per ambiguity group (DIAG005): Gaussian
  // arrival sweeps with Clark's max at merges, one baseline per pattern
  // plus one delta-shifted re-sweep per (group, pattern) - closed-form,
  // no Monte-Carlo.
  if (subject.delay_model != nullptr && !facts.groups.empty()) {
    std::vector<std::vector<timing::GaussianArrival>> base;
    base.reserve(facts.n_patterns);
    for (std::size_t j = 0; j < facts.n_patterns; ++j) {
      base.push_back(
          analytic_sweep(subject, tgs[j], netlist::kInvalidArc, 0.0));
    }
    double clk = subject.clk;
    if (clk <= 0.0) {
      // Default: the slowest analytic mean arrival any pattern launches to
      // any output - the median of the critical observed path, where the
      // criticality probabilities are most informative.
      for (std::size_t j = 0; j < facts.n_patterns; ++j) {
        for (const GateId og : nl.outputs()) {
          if (tgs[j].toggles(og)) clk = std::max(clk, base[j][og].mean);
        }
      }
    }
    double delta = subject.defect_delta;
    if (delta <= 0.0) delta = 0.75 * subject.delay_model->mean_cell_delay();

    const std::size_t n_groups =
        std::min(facts.groups.size(), subject.max_separability_groups);
    std::vector<std::vector<double>> signatures(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g) {
      signatures[g] = analytic_signature(subject, tgs, base, clk,
                                         facts.groups[g].arcs.front(), delta);
    }
    facts.group_min_separation.assign(facts.groups.size(), -1.0);
    for (std::size_t g = 0; g < n_groups; ++g) {
      double best = -1.0;
      for (std::size_t h = 0; h < n_groups; ++h) {
        if (h == g) continue;
        const double d = l1_distance(signatures[g], signatures[h]);
        if (best < 0.0 || d < best) best = d;
      }
      facts.group_min_separation[g] = best;
    }
  }
  return facts;
}

namespace {

std::string json_double(double v) {
  return std::isfinite(v) ? obs::json_double(v) : "null";
}

}  // namespace

std::string diagnosability_report_json(const DiagnosabilitySubject& subject,
                                       const SensitizationFacts& facts) {
  std::ostringstream os;
  os << "{\n";
  os << "      \"n_arcs\": " << facts.n_arcs << ",\n";
  os << "      \"n_outputs\": " << facts.n_outputs << ",\n";
  os << "      \"n_patterns\": " << facts.n_patterns << ",\n";
  os << "      \"coverage_ratio\": " << json_double(facts.coverage_ratio)
     << ",\n";
  os << "      \"coverage_threshold\": "
     << json_double(subject.coverage_threshold) << ",\n";
  os << "      \"ambiguity_groups\": [";
  for (std::size_t g = 0; g < facts.groups.size(); ++g) {
    const auto& group = facts.groups[g];
    os << (g == 0 ? "\n" : ",\n") << "        {\"id\": " << g
       << ", \"arcs\": [";
    for (std::size_t i = 0; i < group.arcs.size(); ++i) {
      os << (i == 0 ? "" : ", ") << group.arcs[i];
    }
    os << "], \"coverage\": " << group.coverage << ", \"min_separation\": ";
    const double sep = g < facts.group_min_separation.size()
                           ? facts.group_min_separation[g]
                           : -1.0;
    os << (sep < 0.0 ? "null" : json_double(sep)) << "}";
  }
  os << (facts.groups.empty() ? "],\n" : "\n      ],\n");
  os << "      \"dead_arcs\": [";
  for (std::size_t i = 0; i < facts.dead_arcs.size(); ++i) {
    os << (i == 0 ? "" : ", ") << facts.dead_arcs[i];
  }
  os << "],\n";
  os << "      \"dominance\": [";
  for (std::size_t i = 0; i < facts.dominance.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "        {\"dominated\": "
       << facts.dominance[i].dominated
       << ", \"dominator\": " << facts.dominance[i].dominator << "}";
  }
  os << (facts.dominance.empty() ? "],\n" : "\n      ],\n");
  os << "      \"redundant_patterns\": [";
  for (std::size_t c = 0; c < facts.redundant_patterns.size(); ++c) {
    os << (c == 0 ? "" : ", ") << "[";
    for (std::size_t i = 0; i < facts.redundant_patterns[c].size(); ++i) {
      os << (i == 0 ? "" : ", ") << facts.redundant_patterns[c][i];
    }
    os << "]";
  }
  os << "],\n";
  os << "      \"arc_coverage\": [";
  for (std::size_t a = 0; a < facts.pattern_coverage.size(); ++a) {
    os << (a == 0 ? "" : ", ") << facts.pattern_coverage[a];
  }
  os << "]\n";
  os << "    }";
  return os.str();
}

}  // namespace sddd::analysis
