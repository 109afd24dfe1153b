#include "atpg/diag_patterns.h"

#include <algorithm>
#include <span>

#include "paths/path_enum.h"
#include "paths/transition_graph.h"
#include "timing/dynamic_sim.h"

namespace sddd::atpg {

using logicsim::PatternPair;
using netlist::ArcId;

namespace {

/// Sensitization is typically easy or impossible; a small backtrack budget
/// keeps the UNSAT (false path) proofs from dominating pattern generation.
constexpr std::size_t kSensitizeBacktracks = 300;

bool same_pattern(const PatternPair& a, const PatternPair& b) {
  return a.v1 == b.v1 && a.v2 == b.v2;
}

void push_unique(std::vector<PatternPair>& set, PatternPair p,
                 std::size_t cap) {
  if (set.size() >= cap) return;
  for (const auto& q : set) {
    if (same_pattern(p, q)) return;
  }
  set.push_back(std::move(p));
}

}  // namespace

std::vector<PatternPair> generate_diagnostic_patterns(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    ArcId site, const DiagnosticPatternConfig& config, stats::Rng& rng,
    ConflictCache* conflicts) {
  const auto& nl = model.netlist();
  std::vector<PatternPair> set;

  // Heaviest-first candidate scan with a sensitizability filter: many of
  // the structurally heaviest paths are false, so keep pulling candidates
  // until paths_per_site *testable* ones produced patterns.
  const auto candidates = paths::k_heaviest_paths_through(
      nl, lev, model.means(), site,
      std::max(config.candidate_paths, config.paths_per_site));

  const PathDelayAtpg atpg(nl, lev, conflicts);
  std::size_t tested_paths = 0;
  for (const auto& path : candidates) {
    if (tested_paths >= config.paths_per_site) break;
    bool any_polarity = false;
    for (const bool rising : {true, false}) {
      // Non-robust (static sensitization) first: its objectives are a
      // subset of the robust ones, so a non-robust UNSAT proves the path
      // false for this polarity and the (costlier) robust attempt can be
      // skipped entirely.  Most of the structurally heaviest candidates
      // are false paths; this ordering is what keeps ATPG cheap.
      std::optional<PathDelayTest> test =
          atpg.generate(path, rising, /*robust=*/false, rng, 8,
                        kSensitizeBacktracks);
      if (test && !atpg.activates(path, test->pattern)) test.reset();
      if (test && config.try_robust) {
        auto robust = atpg.generate(path, rising, /*robust=*/true, rng, 8,
                                    kSensitizeBacktracks);
        if (robust && atpg.activates(path, robust->pattern)) {
          test = std::move(robust);
        }
      }
      if (test) {
        any_polarity = true;
        push_unique(set, std::move(test->pattern), config.max_patterns);
      }
      if (set.size() >= config.max_patterns) return set;
    }
    tested_paths += any_polarity ? 1U : 0U;
  }

  // Random-search fallback/complement: patterns that provably exercise the
  // site, ranked by launched nominal delay.
  if (config.site_search_patterns > 0 && set.size() < config.max_patterns) {
    for (auto& p : site_activating_patterns(model, lev, site,
                                            config.site_search_patterns,
                                            config.site_search_tries, rng)) {
      push_unique(set, std::move(p), config.max_patterns);
    }
  }

  for (std::size_t i = 0;
       i < config.random_patterns && set.size() < config.max_patterns; ++i) {
    push_unique(set, random_pattern_pair(nl.inputs().size(), rng),
                config.max_patterns);
  }
  return set;
}

std::vector<PatternPair> site_activating_patterns(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    netlist::ArcId site, std::size_t count, std::size_t tries,
    stats::Rng& rng) {
  const auto& nl = model.netlist();
  const logicsim::BitSimulator sim(nl, lev);
  const netlist::GateId site_gate = nl.arc(site).gate;
  const netlist::GateId site_src = nl.gate(site_gate).fanins[nl.arc(site).pin];
  const std::size_t n_pi = nl.inputs().size();

  struct Scored {
    PatternPair pattern;
    double score;
  };
  std::vector<Scored> kept;

  // Bit-parallel pre-screen: simulate 64 candidate pairs per sweep and
  // discard those where the site's source or sink net does not even
  // toggle (a necessary condition for the arc being active).  Only the
  // survivors pay for a TransitionGraph and nominal timing.
  std::vector<PatternPair> batch(std::min<std::size_t>(64, tries));
  for (std::size_t done = 0; done < tries; done += batch.size()) {
    const std::size_t width = std::min(batch.size(), tries - done);
    std::vector<std::uint64_t> w1(n_pi, 0);
    std::vector<std::uint64_t> w2(n_pi, 0);
    for (std::size_t b = 0; b < width; ++b) {
      batch[b] = random_pattern_pair(n_pi, rng);
      for (std::size_t i = 0; i < n_pi; ++i) {
        if (batch[b].v1[i]) w1[i] |= (1ULL << b);
        if (batch[b].v2[i]) w2[i] |= (1ULL << b);
      }
    }
    const auto g1 = sim.simulate(w1);
    const auto g2 = sim.simulate(w2);
    const std::uint64_t src_toggle = g1[site_src] ^ g2[site_src];
    const std::uint64_t gate_toggle = g1[site_gate] ^ g2[site_gate];
    std::uint64_t survivors = src_toggle & gate_toggle;
    if (width < 64) survivors &= (1ULL << width) - 1;
    while (survivors != 0) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(survivors));
      survivors &= survivors - 1;
      PatternPair& p = batch[b];
      const paths::TransitionGraph tg(sim, lev, p);
      if (!tg.is_active(site)) continue;
      // Score: the nominal delay launched through the site plus the
      // deepest arrival it can still influence downstream - prefer tests
      // where the site sits on a long exercised path reaching an output.
      const auto arr = timing::nominal_arrivals(tg, model, lev);
      double down = 0.0;
      for (const netlist::GateId o : nl.outputs()) {
        if (tg.toggles(o)) down = std::max(down, arr[o]);
      }
      kept.push_back(Scored{p, arr[site_gate] + down});
    }
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score > b.score;
                   });
  std::vector<PatternPair> out;
  for (auto& s : kept) {
    if (out.size() >= count) break;
    bool dup = false;
    for (const auto& q : out) dup |= same_pattern(s.pattern, q);
    if (!dup) out.push_back(std::move(s.pattern));
  }
  return out;
}

double site_best_nominal_delay(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    std::span<const logicsim::PatternPair> patterns, netlist::ArcId site) {
  const auto& nl = model.netlist();
  const logicsim::BitSimulator sim(nl, lev);
  const netlist::GateId site_gate = nl.arc(site).gate;
  double best = 0.0;
  for (const auto& p : patterns) {
    const paths::TransitionGraph tg(sim, lev, p);
    if (!tg.is_active(site)) continue;
    const auto arr = timing::nominal_arrivals(tg, model, lev);
    for (const netlist::GateId g : tg.forward_cone(site_gate)) {
      if (nl.output_index(g) >= 0 && tg.toggles(g)) {
        best = std::max(best, arr[g]);
      }
    }
  }
  return best;
}

}  // namespace sddd::atpg
