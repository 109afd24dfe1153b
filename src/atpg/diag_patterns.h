// diag_patterns.h - Diagnostic pattern-set construction (Section H-4).
//
// "For the injected fault and circuit instance, we find a set of 'longest'
// paths through the fault site and generate path delay tests for them.  The
// longest paths are derived using false-path aware static statistical
// timing analysis.  Paths are tested with robust or non-robust patterns
// derived without considering timing."
//
// The produced set mirrors that recipe: per fault site, tests for the K
// statistically longest structural paths through the site (robust when
// attainable, falling back to non-robust), both transition polarities,
// topped up with random two-vector patterns for breadth.  The paper's
// experiments use |TP| < 20.
#pragma once

#include <vector>

#include "atpg/pdf_atpg.h"
#include "netlist/levelize.h"
#include "stats/rng.h"
#include "timing/delay_model.h"

namespace sddd::atpg {

struct DiagnosticPatternConfig {
  std::size_t paths_per_site = 4;   ///< sensitizable longest paths to test
  /// Structurally heaviest candidate paths examined before giving up on
  /// finding paths_per_site sensitizable ones.  The heaviest structural
  /// paths are frequently false (reconvergence); this is the
  /// "false-path-aware ... efficient path selection" role of [17].
  std::size_t candidate_paths = 32;
  bool try_robust = true;           ///< prefer robust tests, fall back
  /// Random-search site tests: random two-vector patterns filtered for
  /// "site arc active", ranked by the nominal delay they launch through
  /// the site.  Complements PODEM when the structural long paths through a
  /// site are false (common under heavy reconvergence).
  std::size_t site_search_patterns = 4;
  std::size_t site_search_tries = 160;
  std::size_t random_patterns = 4;  ///< breadth top-up
  std::size_t max_patterns = 20;    ///< |TP| cap (paper: < 20)
};

/// Generates the diagnostic pattern set for a fault site.  Deterministic
/// given `rng`'s state.  Duplicate patterns are removed.  `conflicts`
/// (built for the model's netlist) lets PODEM skip candidate paths that
/// earlier calls, of this one or others sharing it, proved false; when it
/// is null the call's solver refutes through a private cache.  The
/// patterns and the RNG state after the call are the same either way.
std::vector<logicsim::PatternPair> generate_diagnostic_patterns(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    netlist::ArcId site, const DiagnosticPatternConfig& config,
    stats::Rng& rng, ConflictCache* conflicts = nullptr);

/// Random-search component only: up to `count` patterns under which `site`
/// is active, chosen among `tries` random two-vector patterns as the ones
/// launching the longest nominal delay through the site's gate.  Exposed
/// for tests and the ablation bench.
std::vector<logicsim::PatternPair> site_activating_patterns(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    netlist::ArcId site, std::size_t count, std::size_t tries,
    stats::Rng& rng);

/// Best nominal (mean-delay) output arrival the pattern set launches
/// *through* `site`: max over patterns that activate the site of the
/// latest toggling output in the site's active fan-out cone.  0 when no
/// pattern exercises the site.  This is the detectability yardstick: a
/// delay defect at the site can only be observed if this delay plus the
/// defect reaches the cut-off period.
double site_best_nominal_delay(
    const timing::ArcDelayModel& model, const netlist::Levelization& lev,
    std::span<const logicsim::PatternPair> patterns, netlist::ArcId site);

}  // namespace sddd::atpg
