// pdf_atpg.h - Path-delay-fault test generation (Section G / H-4).
//
// Given a structural PI-to-PO path and a transition polarity at its origin,
// generates a two-vector test (v1, v2) that sensitizes the path:
//
//   - non-robust: every side input of every on-path gate holds its
//     non-controlling value under the final vector v2 (static
//     sensitization); the launch vector v1 only toggles the path origin;
//   - robust: additionally, wherever the on-path input transitions TO its
//     non-controlling value, the side inputs must be steady non-controlling
//     across both vectors (so no side glitch can mask or launch early);
//     XOR-family side inputs must be steady in both vectors.
//
// As in the paper, no timing information is used during generation ("tests
// ... derived without considering timing"); the statistical dynamic timing
// simulation downstream decides what the test really exercises.  Leftover
// unspecified PIs are random-filled (seeded), with optional re-tries until
// the produced pattern really activates the target path under the
// transition-mode sensitization semantics (the re-tries are tested as lanes
// of one 64-wide sweep, see generate()), and an optional GA fill (see
// ga_fill.h) that maximizes the launched path length instead.
#pragma once

#include <optional>

#include "atpg/podem.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "paths/path.h"
#include "stats/rng.h"

namespace sddd::atpg {

/// One generated delay test and its provenance.
struct PathDelayTest {
  logicsim::PatternPair pattern;
  paths::Path path;
  bool rising_at_origin = false;
  bool robust = false;
  /// True when every arc of `path` is active under `pattern`.
  bool activates = false;
};

/// Ternary launch/capture templates for a sensitized path: X positions are
/// free for fill (random or GA).
struct SensitizedTemplates {
  std::vector<logicsim::Tern> v1;
  std::vector<logicsim::Tern> v2;
};

class PathDelayAtpg {
 public:
  /// `conflicts` is handed to the PODEM solver, which owns a private cache
  /// when it is null (see podem.h).
  PathDelayAtpg(const netlist::Netlist& nl, const netlist::Levelization& lev,
                ConflictCache* conflicts = nullptr);

  /// Solves the sensitization objectives only (no fill): the PODEM half of
  /// generate().  Exposed so alternative fill strategies (ga_fill.h) can
  /// start from the same templates.
  std::optional<SensitizedTemplates> sensitize(
      const paths::Path& path, bool rising_at_origin, bool robust,
      std::size_t max_backtracks = 2000) const;

  /// Generates a test for `path` with the given origin transition, or
  /// nullopt when the sensitization objectives are unsatisfiable within
  /// the backtrack budget.  `fill_rng` fills unconstrained PIs; up to
  /// `fill_retries` fills are tried, and the first under which the whole
  /// path is active is returned (`activates` true).  When none activates,
  /// the first fill is returned (`activates` false).  Either way the
  /// patterns and `fill_rng`'s final state are those of trying the fills
  /// one at a time and stopping at the first that activates, although the
  /// fills are drawn ahead and tested as lanes of one sweep.
  std::optional<PathDelayTest> generate(const paths::Path& path,
                                        bool rising_at_origin, bool robust,
                                        stats::Rng& fill_rng,
                                        std::size_t fill_retries = 8,
                                        std::size_t max_backtracks = 2000) const;

  /// True when every arc of `path` is active under `pattern` (the test
  /// launches a transition down the entire path).
  bool activates(const paths::Path& path,
                 const logicsim::PatternPair& pattern) const;

 private:
  const netlist::Netlist* nl_;
  const netlist::Levelization* lev_;
  logicsim::BitSimulator sim_;
  Podem podem_;
};

/// Uniformly random two-vector pattern (every PI random in both vectors).
logicsim::PatternPair random_pattern_pair(std::size_t n_inputs,
                                          stats::Rng& rng);

}  // namespace sddd::atpg
