#include "atpg/diag_patterns.h"

#include <algorithm>
#include <span>

#include "obs/metrics.h"
#include "paths/path_enum.h"
#include "paths/transition_words.h"
#include "timing/dynamic_sim.h"

namespace sddd::atpg {

using logicsim::PatternPair;
using netlist::ArcId;

namespace {

/// Sensitization is typically easy or impossible; a small backtrack budget
/// keeps the UNSAT (false path) proofs from dominating pattern generation.
constexpr std::size_t kSensitizeBacktracks = 300;

/// Stage counters (atpg.paths.*, atpg.site.*, atpg.gate.*).  They count
/// work fixed by the draws alone, so they match at any thread count and
/// with or without a ConflictCache.
struct StageCounters {
  obs::Counter& paths_enumerated;
  obs::Counter& paths_tried;
  obs::Counter& site_tries;
  obs::Counter& site_survivors;
  obs::Counter& gate_calls;
  obs::Counter& gate_zero;
};

StageCounters& counters() {
  static StageCounters c = [] {
    auto& reg = obs::MetricsRegistry::instance();
    return StageCounters{reg.register_counter("atpg.paths.enumerated"),
                         reg.register_counter("atpg.paths.tried"),
                         reg.register_counter("atpg.site.tries"),
                         reg.register_counter("atpg.site.survivors"),
                         reg.register_counter("atpg.gate.calls"),
                         reg.register_counter("atpg.gate.zero")};
  }();
  return c;
}

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

  counters().paths_enumerated.add(candidates.size());

  const PathDelayAtpg atpg(nl, lev, conflicts);
  std::size_t tested_paths = 0;
  for (const auto& path : candidates) {
    if (tested_paths >= config.paths_per_site) break;
    counters().paths_tried.add(1);
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
      if (test && !test->activates) test.reset();
      if (test && config.try_robust) {
        auto robust = atpg.generate(path, rising, /*robust=*/true, rng, 8,
                                    kSensitizeBacktracks);
        if (robust && robust->activates) test = std::move(robust);
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
  paths::TransitionWords words(sim);
  const netlist::GateId site_gate = nl.arc(site).gate;
  const std::size_t n_pi = nl.inputs().size();

  struct Scored {
    PatternPair pattern;
    double score;
  };
  std::vector<Scored> kept;

  // 64 tries per sweep pair: each try's bits are drawn straight into its
  // lane, in random_pattern_pair's order, and the survivors are the lanes
  // whose site arc is active.  Only they pay for nominal timing.
  std::vector<std::uint64_t> w1(n_pi);
  std::vector<std::uint64_t> w2(n_pi);
  std::size_t survivors_total = 0;
  for (std::size_t done = 0; done < tries; done += 64) {
    const std::size_t width = std::min<std::size_t>(64, tries - done);
    std::fill(w1.begin(), w1.end(), 0);
    std::fill(w2.begin(), w2.end(), 0);
    for (std::size_t lane = 0; lane < width; ++lane) {
      for (std::size_t i = 0; i < n_pi; ++i) {
        w1[i] |= static_cast<std::uint64_t>(rng.coin()) << lane;
        w2[i] |= static_cast<std::uint64_t>(rng.coin()) << lane;
      }
    }
    words.simulate(w1, w2);
    // Lanes past `width` hold the all-zero pair, which activates nothing.
    std::uint64_t survivors = words.active(site);
    while (survivors != 0) {
      const auto lane = static_cast<unsigned>(__builtin_ctzll(survivors));
      survivors &= survivors - 1;
      ++survivors_total;
      // Score: the nominal delay launched through the site plus the
      // deepest arrival of any toggling output, wherever that output sits
      // relative to the site (ranking by the site's own cone instead is
      // ROADMAP item B).
      const paths::TransitionWords::Lane view = words.lane(lane);
      const auto arr = timing::nominal_arrivals(view, model, lev);
      double down = 0.0;
      for (const netlist::GateId o : nl.outputs()) {
        if (view.toggles(o)) down = std::max(down, arr[o]);
      }
      kept.push_back(Scored{words.pattern(lane), arr[site_gate] + down});
    }
  }
  counters().site_tries.add(tries);
  counters().site_survivors.add(survivors_total);
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
  paths::TransitionWords words(sim);
  const netlist::GateId site_gate = nl.arc(site).gate;
  const std::uint32_t site_level = lev.level(site_gate);
  std::vector<std::uint64_t> cone(nl.gate_count());
  double best = 0.0;
  for (std::size_t first = 0; first < patterns.size(); first += 64) {
    words.simulate(patterns.subspan(
        first, std::min<std::size_t>(64, patterns.size() - first)));
    const std::uint64_t lanes = words.active(site);
    if (lanes == 0) continue;
    // The site gate's forward cone over active arcs, one lane per pattern:
    // a gate joins in a lane when an active fanin arc comes from a gate
    // already in it.  Only gates above the site's level can join.
    std::fill(cone.begin(), cone.end(), 0);
    cone[site_gate] = lanes;
    for (const netlist::GateId g : lev.topo_order()) {
      if (lev.level(g) <= site_level) continue;
      const auto& fanins = nl.gate(g).fanins;
      const netlist::ArcId base = nl.arc_base(g);
      std::uint64_t in = 0;
      for (std::uint32_t pin = 0; pin < fanins.size(); ++pin) {
        in |= cone[fanins[pin]] & words.active(base + pin);
      }
      cone[g] = in;
    }
    for (std::uint64_t rest = lanes; rest != 0; rest &= rest - 1) {
      const auto lane = static_cast<unsigned>(__builtin_ctzll(rest));
      const auto arr = timing::nominal_arrivals(words.lane(lane), model, lev);
      for (const netlist::GateId o : nl.outputs()) {
        if ((((cone[o] & words.toggles(o)) >> lane) & 1U) != 0) {
          best = std::max(best, arr[o]);
        }
      }
    }
  }
  counters().gate_calls.add(1);
  if (best == 0.0) counters().gate_zero.add(1);
  return best;
}

}  // namespace sddd::atpg
