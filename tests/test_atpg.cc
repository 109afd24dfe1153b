// Unit tests for the ATPG substrate: PODEM objective satisfaction (also
// against the cache-free event-simulator oracle of podem_oracle.h, the one
// reference every solver answer is compared with), refutation by
// propagation, the conflict cache's cores and abort memo, path
// sensitization (non-robust and robust), GA fill
// and the diagnostic pattern-set generator, whose site search, gate and
// fill loop are also checked against the scalar oracle of
// activity_oracle.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <thread>

#include "activity_oracle.h"
#include "podem_oracle.h"
#include "atpg/conflict_cache.h"
#include "atpg/diag_patterns.h"
#include "atpg/ga_fill.h"
#include "atpg/pdf_atpg.h"
#include "atpg/podem.h"
#include "logicsim/bitsim.h"
#include "logicsim/ternary.h"
#include "netlist/bench_io.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "obs/metrics.h"
#include "paths/path_enum.h"
#include "paths/transition_graph.h"
#include "timing/celllib.h"
#include "timing/delay_model.h"

namespace sddd::atpg {
namespace {

using logicsim::BitSimulator;
using logicsim::Tern;
using logicsim::TernarySimulator;
using netlist::ArcId;
using netlist::CellType;
using netlist::GateId;
using netlist::Levelization;
using netlist::Netlist;
using paths::Path;

Netlist c17() {
  return netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
}

TEST(Podem, SatisfiesSimpleObjectives) {
  const auto nl = c17();
  const Levelization lev(nl);
  const Podem podem(nl, lev);
  const TernarySimulator sim(nl, lev);
  for (const char* name : {"10", "11", "16", "19", "22", "23"}) {
    for (const bool v : {false, true}) {
      const std::vector<Objective> obj = {{nl.find(name), v}};
      const auto result = podem.solve(obj);
      ASSERT_TRUE(result.has_value()) << name << "=" << v;
      const auto values = sim.simulate(result->pi_values);
      EXPECT_EQ(values[nl.find(name)], v ? Tern::k1 : Tern::k0);
    }
  }
}

TEST(Podem, SatisfiesJointObjectives) {
  const auto nl = c17();
  const Levelization lev(nl);
  const Podem podem(nl, lev);
  const TernarySimulator sim(nl, lev);
  const std::vector<Objective> obj = {{nl.find("22"), false},
                                      {nl.find("23"), true}};
  const auto result = podem.solve(obj);
  ASSERT_TRUE(result.has_value());
  const auto values = sim.simulate(result->pi_values);
  EXPECT_EQ(values[nl.find("22")], Tern::k0);
  EXPECT_EQ(values[nl.find("23")], Tern::k1);
}

TEST(Podem, DetectsUnsatisfiable) {
  // y = AND(a, b); objectives y=1 and a=0 conflict.
  Netlist nl("conflict");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto y = nl.add_gate(CellType::kAnd, "y", {a, b});
  nl.add_output(y);
  nl.freeze();
  const Levelization lev(nl);
  const Podem podem(nl, lev);
  const std::vector<Objective> obj = {{y, true}, {a, false}};
  EXPECT_FALSE(podem.solve(obj).has_value());
}

TEST(Podem, RespectsPreAssignment) {
  const auto nl = c17();
  const Levelization lev(nl);
  const Podem podem(nl, lev);
  // Pin input "1" to 0 and require 10 = 0: needs 1=1 AND 3=1, conflict.
  std::vector<Tern> pre(nl.inputs().size(), Tern::kX);
  pre[0] = Tern::k0;  // input "1"
  const std::vector<Objective> obj = {{nl.find("10"), false}};
  EXPECT_FALSE(podem.solve(obj, 2000, pre).has_value());
  // With 1 pinned to 1 it is satisfiable.
  pre[0] = Tern::k1;
  EXPECT_TRUE(podem.solve(obj, 2000, pre).has_value());
}

TEST(Podem, ObjectiveOutOfRangeThrows) {
  const auto nl = c17();
  const Levelization lev(nl);
  const Podem podem(nl, lev);
  const std::vector<Objective> obj = {{static_cast<GateId>(9999), true}};
  EXPECT_THROW((void)podem.solve(obj), std::invalid_argument);
}

struct AtpgFixture {
  Netlist nl;
  Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  AtpgFixture()
      : nl([] {
          netlist::SynthSpec spec;
          spec.n_inputs = 16;
          spec.n_outputs = 10;
          spec.n_gates = 120;
          spec.depth = 10;
          spec.seed = 103;
          return netlist::synthesize(spec);
        }()),
        lev(nl),
        model(nl, lib) {}
};

std::uint64_t counter(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::instance().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Sorted literals of objectives plus pins, as Podem queries its cache.
std::vector<Literal> literals_of(const Netlist& nl,
                                 const std::vector<Objective>& objectives,
                                 const std::vector<Tern>& pins) {
  std::vector<Literal> lits;
  for (const Objective& o : objectives) lits.push_back(to_literal(o));
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] != Tern::kX) {
      lits.push_back(to_literal({nl.inputs()[i], pins[i] == Tern::k1}));
    }
  }
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  return lits;
}

/// True when the oracle's search of `core` alone runs to exhaustion: the
/// core re-proves unsatisfiable on its own.
bool reproves(const Netlist& nl, const Levelization& lev,
              const std::vector<Objective>& core) {
  return test_oracle::OraclePodem(nl, lev).solve(core, 100000).outcome ==
         test_oracle::PodemOutcome::kExhausted;
}

/// Asserts that a solve answers as the oracle's search of the same query
/// did: a test exactly when the oracle found one, with its PI values and
/// backtracks.
void expect_oracle_answer(const std::optional<PodemResult>& got,
                          const test_oracle::OracleSolve& want) {
  ASSERT_EQ(got.has_value(), want.outcome == test_oracle::PodemOutcome::kSat);
  if (!got) return;
  EXPECT_EQ(got->pi_values, want.pi);
  EXPECT_EQ(got->backtracks, want.backtracks);
}

// y = AND(a, b) and w = NOR(a, b) cannot both be 1: y = 1 implies a = 1,
// which implies w = 0, so propagation refutes the pair.
struct AndNor {
  Netlist nl{"and_nor"};
  GateId a, b, y, w;
  AndNor() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    y = nl.add_gate(CellType::kAnd, "y", {a, b});
    w = nl.add_gate(CellType::kNor, "w", {a, b});
    nl.add_output(y);
    nl.add_output(w);
    nl.freeze();
  }
};

// y = XOR(a, b) and w = XNOR(a, b) cannot both be 1, but each leaves two
// pins open, so propagation implies nothing: only a search settles the
// pair, and its first decision conflicts, so that takes backtracks.
struct XorXnor {
  Netlist nl{"xor_xnor"};
  GateId a, b, y, w;
  XorXnor() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    y = nl.add_gate(CellType::kXor, "y", {a, b});
    w = nl.add_gate(CellType::kXnor, "w", {a, b});
    nl.add_output(y);
    nl.add_output(w);
    nl.freeze();
  }
};

TEST(ConflictCache, RefutedCallLearnsAndPrunes) {
  AndNor c;
  const Levelization lev(c.nl);
  ConflictCache cache(c.nl);
  const Podem podem(c.nl, lev, &cache);
  const std::vector<Objective> obj = {{c.y, true}, {c.w, true}};
  const std::uint64_t refuted = counter("atpg.podem.refuted");
  EXPECT_FALSE(podem.solve(obj).has_value());
  EXPECT_EQ(counter("atpg.podem.refuted"), refuted + 1);
  ASSERT_EQ(cache.stats().cores, 1u);
  EXPECT_EQ(cache.cores()[0].size(), 2u);  // y = 1 and w = 1
  EXPECT_GT(cache.stats().bytes, 0u);
  // The same objectives, or any superset, are now answered unsearched.
  const std::uint64_t pruned = counter("atpg.podem.pruned");
  EXPECT_FALSE(podem.solve(obj).has_value());
  std::vector<Tern> pins(c.nl.inputs().size(), Tern::kX);
  pins[1] = Tern::k0;
  EXPECT_FALSE(podem.solve(obj, 2000, pins).has_value());
  EXPECT_EQ(counter("atpg.podem.pruned"), pruned + 2);
  // A satisfiable subset is still solved.
  EXPECT_TRUE(podem.solve(std::vector<Objective>{{c.y, true}}).has_value());

  // Only refutations learn: an unsatisfiable pair that propagation leaves
  // open is searched to exhaustion, and the search learns nothing.
  XorXnor x;
  const Levelization x_lev(x.nl);
  ConflictCache x_cache(x.nl);
  const Podem x_podem(x.nl, x_lev, &x_cache);
  const std::uint64_t exhausted = counter("atpg.podem.exhausted");
  EXPECT_FALSE(
      x_podem.solve(std::vector<Objective>{{x.y, true}, {x.w, true}}).has_value());
  EXPECT_EQ(counter("atpg.podem.exhausted"), exhausted + 1);
  EXPECT_EQ(x_cache.stats().cores, 0u);
}

TEST(ConflictCache, AbortAndDeadEndLearnNothing) {
  XorXnor c;
  const Levelization lev(c.nl);
  ConflictCache cache(c.nl);
  const Podem podem(c.nl, lev, &cache);
  // An unsatisfiable pair that propagation cannot refute: at budget 0 the
  // search aborts, which proves nothing.
  const std::vector<Objective> obj = {{c.y, true}, {c.w, true}};
  const std::uint64_t aborted = counter("atpg.podem.aborted");
  EXPECT_FALSE(podem.solve(obj, 0).has_value());
  EXPECT_EQ(counter("atpg.podem.aborted"), aborted + 1);
  EXPECT_EQ(test_oracle::OraclePodem(c.nl, lev).solve(obj, 0).outcome,
            test_oracle::PodemOutcome::kAborted);
  EXPECT_EQ(cache.stats().cores, 0u);

  // An objective behind a flip-flop no scan transform has cut: the
  // implication leaves q at X, so the backtrace dead-ends although
  // y = AND(a, q) = 1 is satisfiable once q holds 1.
  Netlist seq("seq");
  const auto a = seq.add_input("a");
  const auto q = seq.add_gate(CellType::kDff, "q", {a});
  const auto y = seq.add_gate(CellType::kAnd, "y", {a, q});
  seq.add_output(y);
  seq.freeze();
  const Levelization seq_lev(seq);
  ConflictCache seq_cache(seq);
  const Podem seq_podem(seq, seq_lev, &seq_cache);
  const std::vector<Objective> seq_obj = {{y, true}};
  const std::uint64_t dead = counter("atpg.podem.dead_end");
  EXPECT_FALSE(seq_podem.solve(seq_obj).has_value());
  EXPECT_EQ(counter("atpg.podem.dead_end"), dead + 1);
  EXPECT_EQ(test_oracle::OraclePodem(seq, seq_lev).solve(seq_obj, 2000).outcome,
            test_oracle::PodemOutcome::kDeadEnd);
  EXPECT_EQ(seq_cache.stats().cores, 0u);
}

TEST(ConflictCache, ConstantsHoldTheirValue) {
  // z = OR(AND(a, b), k) with k tied to 0: the implication's baseline
  // holds k = 0, so {y = 1, k = 0} is satisfiable and {k = 1} conflicts
  // with the baseline itself, a refutation whose core is that literal.
  Netlist nl("const");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto k = nl.add_gate(CellType::kConst0, "k", {});
  const auto y = nl.add_gate(CellType::kAnd, "y", {a, b});
  const auto z = nl.add_gate(CellType::kOr, "z", {y, k});
  nl.add_output(z);
  nl.freeze();
  const Levelization lev(nl);
  ConflictCache cache(nl);
  const Podem podem(nl, lev, &cache);
  const TernarySimulator sim(nl, lev);
  const auto sat = podem.solve(std::vector<Objective>{{y, true}, {k, false}});
  ASSERT_TRUE(sat.has_value());
  EXPECT_EQ(sim.simulate(sat->pi_values)[y], Tern::k1);
  const std::uint64_t refuted = counter("atpg.podem.refuted");
  EXPECT_FALSE(podem.solve(std::vector<Objective>{{k, true}}).has_value());
  EXPECT_EQ(counter("atpg.podem.refuted"), refuted + 1);
  ASSERT_EQ(cache.stats().cores, 1u);
  ASSERT_EQ(cache.cores()[0].size(), 1u);
  EXPECT_EQ(cache.cores()[0][0].gate, k);
  EXPECT_TRUE(cache.cores()[0][0].value);
}

TEST(ConflictCache, LearnedCoresAreSubsetsThatReprove) {
  netlist::SynthSpec spec;
  spec.n_inputs = 12;
  spec.n_outputs = 8;
  spec.n_gates = 150;
  spec.depth = 9;
  spec.seed = 41;
  const Netlist nl = netlist::synthesize(spec);
  const Levelization lev(nl);
  stats::Rng rng(43);
  std::size_t learned = 0;
  for (int t = 0; t < 200; ++t) {
    std::vector<Objective> obj;
    const std::size_t count = 2 + rng.below(5);
    for (std::size_t i = 0; i < count; ++i) {
      const auto g = static_cast<GateId>(
          rng.below(static_cast<std::uint32_t>(nl.gate_count())));
      obj.push_back({g, rng.bernoulli(0.5)});
    }
    std::vector<Tern> pins(nl.inputs().size(), Tern::kX);
    pins[rng.below(static_cast<std::uint32_t>(pins.size()))] =
        rng.bernoulli(0.5) ? Tern::k1 : Tern::k0;
    ConflictCache cache(nl);
    const Podem podem(nl, lev, &cache);
    (void)podem.solve(obj, 300, pins);
    const auto query = literals_of(nl, obj, pins);
    for (const auto& core : cache.cores()) {
      ++learned;
      for (const Objective& o : core) {
        EXPECT_TRUE(std::binary_search(query.begin(), query.end(),
                                       to_literal(o)))
            << "core literal outside the call's objectives and pins";
      }
      EXPECT_TRUE(reproves(nl, lev, core));
    }
  }
  EXPECT_GT(learned, 20u);
}

// Every refuted call and the core it learns are unsatisfiable: on a
// 16-PI netlist, random objective sets with pins are checked against all
// 2^16 PI assignments.
TEST(ConflictCache, RefutationIsSound) {
  AtpgFixture f;
  const Netlist& nl = f.nl;
  const std::size_t n_pi = nl.inputs().size();
  ASSERT_GE(n_pi, 6u);
  ASSERT_LE(n_pi, 16u);
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    ASSERT_NE(nl.gate(g).type, CellType::kDff) << "PIs must be every source";
  }
  // rows[g * words + w], bit k: gate g's value under PI assignment
  // 64 w + k, in which PI i takes bit i of the assignment.
  const std::size_t words = (std::size_t{1} << n_pi) / 64;
  std::vector<std::uint64_t> rows(nl.gate_count() * words);
  const BitSimulator sim(nl, f.lev);
  constexpr std::uint64_t kLow[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  std::vector<std::uint64_t> pi_words(n_pi);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < n_pi; ++i) {
      pi_words[i] = i < 6 ? kLow[i] : ((w >> (i - 6)) & 1U) != 0 ? ~0ULL : 0;
    }
    const auto values = sim.simulate(pi_words);
    for (GateId g = 0; g < nl.gate_count(); ++g) rows[g * words + w] = values[g];
  }
  const auto satisfiable = [&](const std::vector<Literal>& lits) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t m = ~0ULL;
      for (const Literal lit : lits) {
        const std::uint64_t row = rows[(lit >> 1U) * words + w];
        m &= (lit & 1U) != 0 ? row : ~row;
      }
      if (m != 0) return true;
    }
    return false;
  };
  stats::Rng rng(61);
  std::size_t refuted = 0;
  for (int t = 0; t < 600; ++t) {
    std::vector<Objective> obj;
    for (std::size_t i = 1 + rng.below(8); i > 0; --i) {
      obj.push_back({static_cast<GateId>(rng.below(
                         static_cast<std::uint32_t>(nl.gate_count()))),
                     rng.bernoulli(0.5)});
    }
    std::vector<Tern> pins(n_pi, Tern::kX);
    for (std::size_t p = rng.below(4); p > 0; --p) {
      pins[rng.below(static_cast<std::uint32_t>(n_pi))] =
          rng.bernoulli(0.5) ? Tern::k1 : Tern::k0;
    }
    // A fresh cache: the call is refuted, not pruned, whenever it can be.
    ConflictCache cache(nl);
    const Podem podem(nl, f.lev, &cache);
    const std::uint64_t before = counter("atpg.podem.refuted");
    const auto got = podem.solve(obj, 300, pins);
    if (counter("atpg.podem.refuted") != before + 1) continue;
    ++refuted;
    EXPECT_FALSE(got.has_value());
    const auto query = literals_of(nl, obj, pins);
    EXPECT_FALSE(satisfiable(query)) << "call " << t;
    ASSERT_EQ(cache.stats().cores, 1u);
    const auto core = literals_of(nl, cache.cores()[0], {});
    EXPECT_TRUE(std::includes(query.begin(), query.end(), core.begin(),
                              core.end()))
        << "core literal outside the call's objectives and pins";
    EXPECT_FALSE(satisfiable(core)) << "call " << t;
  }
  EXPECT_GT(refuted, 100u);
}

TEST(ConflictCache, CapStopsLearningNotPruning) {
  AtpgFixture f;
  ConflictCache cache(f.nl);
  const auto n_lits = static_cast<std::uint32_t>(2 * f.nl.gate_count());
  // Random 64-literal cores: distinct ones never cover each other.
  stats::Rng rng(5);
  const auto random_core = [&] {
    std::vector<Literal> core;
    while (core.size() < 64) {
      const Literal l = rng.below(n_lits);
      if (std::find(core.begin(), core.end(), l) == core.end()) {
        core.push_back(l);
      }
    }
    std::sort(core.begin(), core.end());
    return core;
  };
  const std::vector<Literal> first = random_core();
  ASSERT_TRUE(cache.add(first));
  std::size_t tries = 0;
  while (cache.add(random_core())) ASSERT_LT(++tries, 100000u);
  EXPECT_LE(cache.stats().bytes, ConflictCache::kMaxBytes);
  const std::size_t cores = cache.stats().cores;
  EXPECT_FALSE(cache.add(random_core()));
  EXPECT_EQ(cache.stats().cores, cores);
  EXPECT_TRUE(cache.covers(first));
}

/// Asserts that two solves of one query agree: the same optional, PI
/// values and backtracks.
void expect_same_answer(const std::optional<PodemResult>& got,
                        const std::optional<PodemResult>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->pi_values, want->pi_values);
  EXPECT_EQ(got->backtracks, want->backtracks);
}

TEST(ConflictCache, AbortMemoIsExact) {
  XorXnor c;
  const Levelization lev(c.nl);
  ConflictCache cache(c.nl);
  const Podem cached(c.nl, lev, &cache);
  const test_oracle::OraclePodem oracle(c.nl, lev);
  // Solves with the cache and with the oracle; true when the cached call
  // was answered by the abort memo.
  const auto repeat = [&](const std::vector<Objective>& obj,
                          std::size_t budget, const std::vector<Tern>& pins) {
    const std::uint64_t before = counter("atpg.podem.repeat");
    expect_oracle_answer(cached.solve(obj, budget, pins),
                         oracle.solve(obj, budget, pins));
    return counter("atpg.podem.repeat") == before + 1;
  };
  const std::vector<Tern> free(c.nl.inputs().size(), Tern::kX);
  const std::vector<Objective> obj = {{c.y, true}, {c.w, true}};
  // At budget 0 the first search aborts; an identical call is answered
  // unsearched.
  EXPECT_FALSE(repeat(obj, 0, free));
  EXPECT_EQ(cache.stats().refused, 1u);
  EXPECT_TRUE(repeat(obj, 0, free));
  EXPECT_TRUE(repeat(obj, 0, {}));  // no pins = every PI free
  // The same objectives in another order or repeated, under other pins
  // or with a larger budget are other calls.
  EXPECT_FALSE(repeat({obj[1], obj[0]}, 0, free));
  EXPECT_FALSE(repeat({obj[0], obj[1], obj[0]}, 0, free));
  std::vector<Tern> pins = free;
  pins[1] = Tern::k0;
  EXPECT_FALSE(repeat(obj, 0, pins));
  EXPECT_FALSE(repeat(obj, 2, free));
  EXPECT_EQ(cache.stats().refused, 4u);
  // Pinned b = 0 leaves one pin of each gate open: it was refuted.
  EXPECT_EQ(cache.stats().cores, 1u);

  // The memo holds whole keys: a prefix, an extension and a wider value of
  // a held key are other keys.
  ConflictCache memo(c.nl);
  const std::vector<std::uint32_t> key = {300, 2, 7, 9};
  EXPECT_FALSE(memo.refused(key));
  memo.record_refused(key);
  memo.record_refused(key);
  EXPECT_TRUE(memo.refused(key));
  EXPECT_EQ(memo.stats().refused, 1u);
  EXPECT_FALSE(memo.refused({300, 2, 7}));
  EXPECT_FALSE(memo.refused({300, 2, 7, 9, 0}));
  EXPECT_FALSE(memo.refused({300, 2, 7 + 0x10000U, 9}));

  // On a stand-in: every heavy path's capture query at a budget that
  // aborts, twice, then at one that decides it.  Some query must abort at
  // the small budget and be satisfiable at the large one.
  const Netlist nl =
      netlist::make_standin(*netlist::find_profile("s1196"), 0.35, 7);
  const Levelization nl_lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  ConflictCache nl_cache(nl);
  const Podem nl_cached(nl, nl_lev, &nl_cache);
  const test_oracle::OraclePodem nl_oracle(nl, nl_lev);
  std::size_t repeats = 0;
  std::size_t decided_later = 0;
  const ArcId step = std::max<ArcId>(1, static_cast<ArcId>(nl.arc_count() / 24));
  for (ArcId site = 0; site < nl.arc_count(); site += step) {
    for (const auto& path :
         paths::k_heaviest_paths_through(nl, nl_lev, model.means(), site, 8)) {
      if (test_oracle::origin_position(nl, path) < 0) continue;
      for (const bool rising : {true, false}) {
        const auto q = test_oracle::sensitize_v2_query(nl, path, rising);
        bool small_aborted = false;
        for (const std::size_t budget : {2, 2, 300, 300}) {
          const auto want = nl_oracle.solve(q.objectives, budget, q.pins);
          const std::uint64_t repeat0 = counter("atpg.podem.repeat");
          const auto got = nl_cached.solve(q.objectives, budget, q.pins);
          repeats += counter("atpg.podem.repeat") == repeat0 + 1 ? 1U : 0U;
          expect_oracle_answer(got, want);
          small_aborted |=
              budget == 2 && want.outcome == test_oracle::PodemOutcome::kAborted;
          if (budget == 300 && small_aborted && got) ++decided_later;
        }
      }
    }
  }
  EXPECT_GT(repeats, 0u);
  EXPECT_GT(decided_later, 0u);
}

TEST(ConflictCache, MemoStopsAtItsByteBudget) {
  // Distinct keys fill the abort memo until one would pass its payload cap
  // (4 bytes a key word); that key is not recorded, and every held key
  // still answers.
  AndNor c;
  ConflictCache cache(c.nl);
  const std::size_t core_bytes = cache.stats().bytes;
  const std::uint64_t memo_bytes0 = counter("atpg.conflict.memo_bytes");
  stats::Rng rng(9);
  std::vector<std::vector<std::uint32_t>> held;
  std::size_t payload = 0;
  for (std::uint32_t n = 0;; ++n) {
    std::vector<std::uint32_t> key(1 + rng.below(60));
    key[0] = n;
    for (std::size_t i = 1; i < key.size(); ++i) key[i] = rng.next();
    cache.record_refused(key);
    if (!cache.refused(key)) {
      EXPECT_GT(payload + 4 * key.size(), ConflictCache::kMaxMemoBytes);
      break;
    }
    payload += 4 * key.size();
    held.push_back(std::move(key));
  }
  EXPECT_GT(held.size(), 1000u);
  EXPECT_LE(payload, ConflictCache::kMaxMemoBytes);
  EXPECT_EQ(cache.stats().refused, held.size());
  EXPECT_EQ(cache.stats().bytes, core_bytes + payload);
  EXPECT_EQ(counter("atpg.conflict.memo_bytes"), memo_bytes0 + payload);
  for (const auto& key : held) ASSERT_TRUE(cache.refused(key));
}

TEST(ConflictCache, SharedAcrossThreadsMatchesOneThread) {
  // Four solvers share one cache, each answering every fourth query twice;
  // every answer equals the one-thread, one-cache run's.
  const Netlist nl =
      netlist::make_standin(*netlist::find_profile("s1196"), 0.35, 7);
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  std::vector<test_oracle::PodemQuery> queries;
  const ArcId step = std::max<ArcId>(1, static_cast<ArcId>(nl.arc_count() / 32));
  for (ArcId site = 0; site < nl.arc_count(); site += step) {
    for (const auto& path :
         paths::k_heaviest_paths_through(nl, lev, model.means(), site, 8)) {
      if (test_oracle::origin_position(nl, path) < 0) continue;
      for (const bool rising : {true, false}) {
        queries.push_back(test_oracle::sensitize_v2_query(nl, path, rising));
      }
    }
  }
  ASSERT_GT(queries.size(), 100u);
  // Propagation refutes every unsatisfiable query here, so only a
  // satisfiable one can abort: at budget 0, any that needs a backtrack.
  constexpr std::size_t kBudget = 0;
  using Answers = std::vector<std::optional<PodemResult>>;
  const auto run = [&](std::size_t threads) {
    ConflictCache cache(nl);
    Answers answers(2 * queries.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const Podem podem(nl, lev, &cache);
        for (std::size_t i = t; i < queries.size(); i += threads) {
          for (std::size_t k = 0; k < 2; ++k) {
            answers[2 * i + k] = podem.solve(queries[i].objectives, kBudget,
                                             queries[i].pins);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    return answers;
  };
  const std::uint64_t repeat0 = counter("atpg.podem.repeat");
  const Answers one = run(1);
  const Answers four = run(4);
  EXPECT_GT(counter("atpg.podem.repeat"), repeat0);
  std::size_t sat = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_same_answer(four[i], one[i]);
    sat += one[i] ? 1U : 0U;
  }
  EXPECT_GT(sat, 0u);
  EXPECT_LT(sat, one.size());
}

class ConflictEquivalence : public ::testing::TestWithParam<const char*> {};

/// The templates sensitize() must return for (path, rising, robust): the
/// oracle's searches of its capture and launch queries.
std::optional<SensitizedTemplates> oracle_templates(
    const test_oracle::OraclePodem& oracle, const Netlist& nl,
    const Levelization& lev, const Path& path, bool rising, bool robust,
    std::size_t budget) {
  if (test_oracle::origin_position(nl, path) < 0) return std::nullopt;
  const auto q2 = test_oracle::sensitize_v2_query(nl, path, rising);
  const auto v2 = oracle.solve(q2.objectives, budget, q2.pins);
  if (v2.outcome != test_oracle::PodemOutcome::kSat) return std::nullopt;
  const auto q1 =
      test_oracle::sensitize_v1_query(nl, lev, path, rising, robust, v2.pi);
  const auto v1 = oracle.solve(q1.objectives, budget, q1.pins);
  if (v1.outcome != test_oracle::PodemOutcome::kSat) return std::nullopt;
  return SensitizedTemplates{v1.pi, v2.pi};
}

// Every PODEM call of sensitization - each candidate path and polarity,
// v2 and v1, non-robust and robust - answers with a cache warmed by
// earlier sites as the cache-free oracle does, the first time and when
// repeated, and no learned core has an oracle test.
TEST_P(ConflictEquivalence, CachedSolvesMatchCacheFree) {
  const Netlist nl =
      netlist::make_standin(*netlist::find_profile(GetParam()), 0.15, 7);
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  ConflictCache cache(nl);
  const PathDelayAtpg cached(nl, lev, &cache);
  const test_oracle::OraclePodem oracle(nl, lev);
  const std::uint64_t pruned0 = counter("atpg.podem.pruned");
  const std::uint64_t repeat0 = counter("atpg.podem.repeat");
  std::size_t calls = 0;
  const ArcId step = std::max<ArcId>(1, static_cast<ArcId>(nl.arc_count() / 24));
  for (ArcId site = 0; site < nl.arc_count(); site += step) {
    for (const auto& path : paths::k_heaviest_paths_through(
             nl, lev, model.means(), site, 32)) {
      for (const bool rising : {true, false}) {
        for (const bool robust : {false, true}) {
          const auto b =
              oracle_templates(oracle, nl, lev, path, rising, robust, 300);
          for (int twice = 0; twice < 2; ++twice) {
            const auto a = cached.sensitize(path, rising, robust, 300);
            ++calls;
            ASSERT_EQ(a.has_value(), b.has_value()) << "site " << site;
            if (a) {
              EXPECT_EQ(a->v1, b->v1);
              EXPECT_EQ(a->v2, b->v2);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(calls, 100u);
  EXPECT_GT(counter("atpg.podem.pruned"), pruned0);
  if (std::string(GetParam()) == "s9234") {
    EXPECT_GT(counter("atpg.podem.repeat"), repeat0);
  }
  // A search of a core alone may abort (that is why refutation runs
  // first), but it never finds a test.
  EXPECT_GT(cache.stats().cores, 0u);
  for (const auto& core : cache.cores()) {
    EXPECT_NE(oracle.solve(core, 3000).outcome,
              test_oracle::PodemOutcome::kSat);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Standins, ConflictEquivalence, ::testing::Values("s1196", "s9234"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

class RefutationMatchesOracle : public ::testing::TestWithParam<const char*> {};

// Every sensitization query the refuter answers - the capture query of
// each heavy path and polarity, and the launch queries of those that have
// a capture vector - gets no test from the cache-free oracle search at
// 3,000 backtracks either.
TEST_P(RefutationMatchesOracle, RefutedQueriesHaveNoTest) {
  const Netlist nl =
      netlist::make_standin(*netlist::find_profile(GetParam()), 0.15, 7);
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const test_oracle::OraclePodem oracle(nl, lev);
  std::size_t queries = 0;
  std::size_t refuted = 0;
  const auto solve = [&](const test_oracle::PodemQuery& q) {
    // A fresh cache: the query is refuted, not pruned, whenever it can be.
    ConflictCache cache(nl);
    const Podem podem(nl, lev, &cache);
    const std::uint64_t before = counter("atpg.podem.refuted");
    auto got = podem.solve(q.objectives, 300, q.pins);
    ++queries;
    if (counter("atpg.podem.refuted") == before + 1) {
      ++refuted;
      EXPECT_FALSE(got.has_value());
      EXPECT_NE(oracle.solve(q.objectives, 3000, q.pins).outcome,
                test_oracle::PodemOutcome::kSat);
    }
    return got;
  };
  const ArcId step = std::max<ArcId>(1, static_cast<ArcId>(nl.arc_count() / 24));
  for (ArcId site = 0; site < nl.arc_count(); site += step) {
    for (const auto& path :
         paths::k_heaviest_paths_through(nl, lev, model.means(), site, 32)) {
      if (test_oracle::origin_position(nl, path) < 0) continue;
      for (const bool rising : {true, false}) {
        const auto v2 = solve(test_oracle::sensitize_v2_query(nl, path, rising));
        if (!v2) continue;
        for (const bool robust : {false, true}) {
          (void)solve(test_oracle::sensitize_v1_query(nl, lev, path, rising,
                                                      robust, v2->pi_values));
        }
      }
    }
  }
  EXPECT_GT(queries, 100u);
  if (std::string(GetParam()) == "s9234") {
    EXPECT_GT(refuted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Standins, RefutationMatchesOracle, ::testing::Values("s1196", "s9234"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

class PodemEquivalence : public ::testing::TestWithParam<const char*> {};

/// `nl` plus `pairs` XOR/XNOR pairs y_k = XOR(p, q), w_k = XNOR(p, q) over
/// random inputs or gates p != q of level 2 or less, each gate a new
/// output.  {y_k = 1, w_k = 1} is unsatisfiable, but it leaves two pins of
/// each gate open, so propagation implies nothing and only a search
/// settles it: on small input cones, by exhaustion.  Returns the copy and
/// every pair's (y_k, w_k).
std::pair<Netlist, std::vector<std::pair<GateId, GateId>>> with_parity_pairs(
    const Netlist& nl, std::size_t pairs, stats::Rng& rng) {
  const Levelization lev(nl);
  Netlist out(nl.name() + "_parity");
  std::vector<GateId> low;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    const auto& gate = nl.gate(g);
    const GateId id = gate.type == CellType::kInput ? out.add_input(gate.name)
                                                    : out.declare(gate.name);
    EXPECT_EQ(id, g);
    if (lev.level(g) <= 2) low.push_back(g);
  }
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    const auto& gate = nl.gate(g);
    if (gate.type != CellType::kInput) out.define(g, gate.type, gate.fanins);
  }
  for (const GateId o : nl.outputs()) out.add_output(o);
  std::vector<std::pair<GateId, GateId>> ends;
  for (std::size_t k = 0; k < pairs; ++k) {
    const GateId p = low[rng.below(static_cast<std::uint32_t>(low.size()))];
    GateId q = p;
    while (q == p) q = low[rng.below(static_cast<std::uint32_t>(low.size()))];
    const std::string tag = std::to_string(k);
    const GateId y =
        out.add_gate(CellType::kXor, std::string("parity_y").append(tag), {p, q});
    const GateId w =
        out.add_gate(CellType::kXnor, std::string("parity_w").append(tag), {p, q});
    out.add_output(y);
    out.add_output(w);
    ends.emplace_back(y, w);
  }
  out.freeze();
  return {std::move(out), std::move(ends)};
}

// The solver, with the cache it owns, against the cache-free oracle: every
// capture and launch query sensitize() makes for the 32 heaviest paths at
// 24 or more sites, both polarities, non-robust and robust, random
// objective sets with pins at several budgets, and parity pairs that only
// a search settles.  A searched call (sat, exhausted, aborted, dead_end)
// ends as the oracle's search does, with its PI values and backtracks; a
// call answered unsearched (pruned, repeat, refuted) has no oracle test.
TEST_P(PodemEquivalence, SolvesMatchOracle) {
  const Netlist standin =
      netlist::make_standin(*netlist::find_profile(GetParam()), 0.15, 7);
  stats::Rng rng(47);
  const auto built = with_parity_pairs(standin, 24, rng);
  const Netlist& nl = built.first;
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const Podem podem(nl, lev);
  const test_oracle::OraclePodem oracle(nl, lev);
  const PathDelayAtpg plain(nl, lev);
  // Searched outcomes in test_oracle::PodemOutcome order, then the
  // unsearched ones.
  constexpr std::size_t kOutcomes = 7;
  constexpr std::size_t kSearched = 4;
  const char* const outcome_names[kOutcomes] = {
      "atpg.podem.sat",    "atpg.podem.exhausted", "atpg.podem.aborted",
      "atpg.podem.dead_end", "atpg.podem.pruned",  "atpg.podem.repeat",
      "atpg.podem.refuted"};
  std::size_t seen[kOutcomes] = {};
  // Solves `q` both ways and returns the oracle's answer.
  const auto same = [&](const test_oracle::PodemQuery& q,
                        std::size_t budget) {
    const auto want = oracle.solve(q.objectives, budget, q.pins);
    std::uint64_t before[kOutcomes];
    for (std::size_t k = 0; k < kOutcomes; ++k) {
      before[k] = counter(outcome_names[k]);
    }
    const auto got = podem.solve(q.objectives, budget, q.pins);
    std::size_t outcome = kOutcomes;
    for (std::size_t k = 0; k < kOutcomes; ++k) {
      if (counter(outcome_names[k]) == before[k] + 1) outcome = k;
    }
    EXPECT_LT(outcome, kOutcomes);
    if (outcome >= kOutcomes) return want;
    ++seen[outcome];
    if (outcome < kSearched) {
      EXPECT_EQ(outcome, static_cast<std::size_t>(want.outcome));
      expect_oracle_answer(got, want);
    } else {
      EXPECT_FALSE(got.has_value());
      EXPECT_NE(want.outcome, test_oracle::PodemOutcome::kSat)
          << outcome_names[outcome] << " call has an oracle test";
    }
    return want;
  };
  std::size_t sites = 0;
  const ArcId step =
      std::max<ArcId>(1, static_cast<ArcId>(standin.arc_count() / 24));
  for (ArcId site = 0; site < standin.arc_count(); site += step) {
    ++sites;
    for (const auto& path :
         paths::k_heaviest_paths_through(nl, lev, model.means(), site, 32)) {
      if (test_oracle::origin_position(nl, path) < 0) continue;
      for (const bool rising : {true, false}) {
        const auto v2 = same(test_oracle::sensitize_v2_query(nl, path, rising),
                             300);
        for (const bool robust : {false, true}) {
          const auto templates = plain.sensitize(path, rising, robust, 300);
          if (v2.outcome != test_oracle::PodemOutcome::kSat) {
            ASSERT_FALSE(templates.has_value()) << "site " << site;
            continue;
          }
          const auto v1 = same(test_oracle::sensitize_v1_query(
                                   nl, lev, path, rising, robust, v2.pi),
                               300);
          ASSERT_EQ(templates.has_value(),
                    v1.outcome == test_oracle::PodemOutcome::kSat)
              << "site " << site;
          if (templates) {
            EXPECT_EQ(templates->v1, v1.pi);
            EXPECT_EQ(templates->v2, v2.pi);
          }
        }
      }
    }
  }
  EXPECT_GE(sites, 24u);

  const auto random_pins = [&] {
    std::vector<Tern> pins(nl.inputs().size(), Tern::kX);
    for (std::size_t p = rng.below(4); p > 0; --p) {
      pins[rng.below(static_cast<std::uint32_t>(pins.size()))] =
          rng.bernoulli(0.5) ? Tern::k1 : Tern::k0;
    }
    return pins;
  };
  for (int t = 0; t < 400; ++t) {
    test_oracle::PodemQuery q;
    const std::size_t count = 1 + rng.below(12);
    for (std::size_t i = 0; i < count; ++i) {
      q.objectives.push_back(
          {static_cast<GateId>(
               rng.below(static_cast<std::uint32_t>(standin.gate_count()))),
           rng.bernoulli(0.5)});
    }
    q.pins = random_pins();
    const std::size_t budgets[] = {0, 3, 30, 300};
    (void)same(q, budgets[rng.below(4)]);
  }
  for (const auto& [y, w] : built.second) {
    (void)same({{{y, true}, {w, true}}, random_pins()}, 300);
  }
  EXPECT_GT(seen[0], 0u);  // sat
  EXPECT_GT(seen[1], 0u);  // exhausted
  EXPECT_GT(seen[2], 0u);  // aborted
  EXPECT_GT(seen[4] + seen[5] + seen[6], 0u);  // answered unsearched
}

INSTANTIATE_TEST_SUITE_P(
    Standins, PodemEquivalence, ::testing::Values("s1196", "s9234"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

// One cache shared by every site's pattern generation, warmed by the
// sites before, gives the patterns and RNG state that a fresh cache per
// call gives (the five-argument call's solver owns one).
TEST(ConflictCache, PatternSetsAndRngMatchFreshCaches) {
  const Netlist nl =
      netlist::make_standin(*netlist::find_profile("s1196"), 0.15, 7);
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  ConflictCache cache(nl);
  const DiagnosticPatternConfig config;
  stats::Rng shared(31);
  stats::Rng fresh(31);
  for (ArcId site = 0; site < nl.arc_count(); site += 7) {
    const auto a =
        generate_diagnostic_patterns(model, lev, site, config, shared, &cache);
    const auto b = generate_diagnostic_patterns(model, lev, site, config, fresh);
    ASSERT_EQ(a.size(), b.size()) << "site " << site;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].v1, b[i].v1);
      EXPECT_EQ(a[i].v2, b[i].v2);
    }
  }
  EXPECT_EQ(shared.next(), fresh.next());
  EXPECT_GT(cache.stats().cores, 0u);
}

TEST(PathDelayAtpg, GeneratedTestsLaunchTransitions) {
  AtpgFixture f;
  const PathDelayAtpg atpg(f.nl, f.lev);
  const BitSimulator sim(f.nl, f.lev);
  stats::Rng rng(15);
  std::size_t generated = 0;
  std::size_t activated = 0;
  for (ArcId site = 0; site < f.nl.arc_count(); site += 9) {
    const auto candidates = paths::k_heaviest_paths_through(
        f.nl, f.lev, f.model.means(), site, 6);
    for (const auto& path : candidates) {
      const auto test = atpg.generate(path, true, false, rng);
      if (!test) continue;
      ++generated;
      // The origin must toggle in every generated test.
      const paths::TransitionGraph tg(sim, f.lev, test->pattern);
      EXPECT_TRUE(tg.toggles(paths::path_source(f.nl, path)));
      if (atpg.activates(path, test->pattern)) ++activated;
    }
  }
  EXPECT_GT(generated, 10u);
  // A decent fraction of sensitizable targets must truly activate.
  EXPECT_GT(activated * 4, generated);
}

TEST(PathDelayAtpg, RobustTestsKeepSideInputsQuiet) {
  AtpgFixture f;
  const PathDelayAtpg atpg(f.nl, f.lev);
  const BitSimulator sim(f.nl, f.lev);
  stats::Rng rng(16);
  std::size_t checked = 0;
  for (ArcId site = 0; site < f.nl.arc_count() && checked < 12; site += 5) {
    const auto candidates = paths::k_heaviest_paths_through(
        f.nl, f.lev, f.model.means(), site, 4);
    for (const auto& path : candidates) {
      const auto test = atpg.generate(path, false, /*robust=*/true, rng);
      if (!test || !atpg.activates(path, test->pattern)) continue;
      ++checked;
      // Robust criterion: wherever the on-path input settles
      // non-controlling, side inputs hold steady non-controlling.
      const paths::TransitionGraph tg(sim, f.lev, test->pattern);
      for (const ArcId a : path.arcs) {
        const auto& arc = f.nl.arc(a);
        const auto& gate = f.nl.gate(arc.gate);
        if (!has_controlling_value(gate.type)) continue;
        const bool ctrl = controlling_value(gate.type);
        const GateId on_input = gate.fanins[arc.pin];
        if (tg.final_value(on_input) == ctrl) continue;
        for (std::uint32_t p = 0; p < gate.fanins.size(); ++p) {
          if (p == arc.pin) continue;
          const GateId side = gate.fanins[p];
          EXPECT_EQ(tg.final_value(side), !ctrl);
          EXPECT_EQ(tg.initial_value(side), !ctrl);
          EXPECT_FALSE(tg.toggles(side));
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(PathDelayAtpg, SensitizeExposesTemplates) {
  AtpgFixture f;
  const PathDelayAtpg atpg(f.nl, f.lev);
  stats::Rng rng(17);
  for (ArcId site = 3; site < f.nl.arc_count(); site += 31) {
    const auto candidates = paths::k_heaviest_paths_through(
        f.nl, f.lev, f.model.means(), site, 2);
    for (const auto& path : candidates) {
      const auto templates = atpg.sensitize(path, true, false);
      if (!templates) continue;
      EXPECT_EQ(templates->v1.size(), f.nl.inputs().size());
      EXPECT_EQ(templates->v2.size(), f.nl.inputs().size());
      // The origin is pinned opposite in the two vectors.
      const GateId origin = paths::path_source(f.nl, path);
      for (std::size_t i = 0; i < f.nl.inputs().size(); ++i) {
        if (f.nl.inputs()[i] == origin) {
          EXPECT_EQ(templates->v1[i], Tern::k0);
          EXPECT_EQ(templates->v2[i], Tern::k1);
        }
      }
      return;  // one checked template is enough
    }
  }
}

TEST(GaFill, FitnessRewardsActivation) {
  AtpgFixture f;
  const PathDelayAtpg atpg(f.nl, f.lev);
  const GaFill ga(f.model, f.lev);
  stats::Rng rng(18);
  for (ArcId site = 0; site < f.nl.arc_count(); site += 11) {
    const auto candidates = paths::k_heaviest_paths_through(
        f.nl, f.lev, f.model.means(), site, 3);
    for (const auto& path : candidates) {
      const auto templates = atpg.sensitize(path, true, false);
      if (!templates) continue;
      GaFillConfig config;
      config.population = 12;
      config.generations = 8;
      const auto result = ga.fill(path, *templates, rng, config);
      EXPECT_GE(result.fitness, 0.0);
      if (result.path_activated) {
        // An activating fill must outscore a non-activating one.
        logicsim::PatternPair same = result.pattern;
        same.v1 = same.v2;  // no transitions at all
        EXPECT_GT(result.fitness, ga.fitness(path, same));
        return;
      }
    }
  }
}

TEST(GaFill, DeterministicForSeed) {
  AtpgFixture f;
  const PathDelayAtpg atpg(f.nl, f.lev);
  const GaFill ga(f.model, f.lev);
  for (ArcId site = 0; site < f.nl.arc_count(); site += 17) {
    const auto candidates = paths::k_heaviest_paths_through(
        f.nl, f.lev, f.model.means(), site, 2);
    for (const auto& path : candidates) {
      const auto templates = atpg.sensitize(path, false, false);
      if (!templates) continue;
      stats::Rng rng_a(77);
      stats::Rng rng_b(77);
      const auto ra = ga.fill(path, *templates, rng_a);
      const auto rb = ga.fill(path, *templates, rng_b);
      EXPECT_EQ(ra.pattern.v1, rb.pattern.v1);
      EXPECT_EQ(ra.pattern.v2, rb.pattern.v2);
      EXPECT_DOUBLE_EQ(ra.fitness, rb.fitness);
      return;
    }
  }
}

TEST(DiagPatterns, ProducesBoundedUniqueSet) {
  AtpgFixture f;
  stats::Rng rng(19);
  DiagnosticPatternConfig config;
  config.max_patterns = 10;
  for (ArcId site = 0; site < f.nl.arc_count(); site += 23) {
    const auto set = generate_diagnostic_patterns(f.model, f.lev, site,
                                                  config, rng);
    EXPECT_LE(set.size(), 10u);
    EXPECT_GE(set.size(), 1u);
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_EQ(set[i].v1.size(), f.nl.inputs().size());
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        EXPECT_FALSE(set[i].v1 == set[j].v1 && set[i].v2 == set[j].v2);
      }
    }
  }
}

TEST(DiagPatterns, SiteSearchPatternsActivateSite) {
  AtpgFixture f;
  stats::Rng rng(20);
  const BitSimulator sim(f.nl, f.lev);
  std::size_t sites_with_hits = 0;
  for (ArcId site = 0; site < f.nl.arc_count(); site += 19) {
    const auto pats =
        site_activating_patterns(f.model, f.lev, site, 3, 120, rng);
    if (!pats.empty()) ++sites_with_hits;
    for (const auto& p : pats) {
      const paths::TransitionGraph tg(sim, f.lev, p);
      EXPECT_TRUE(tg.is_active(site));
    }
  }
  EXPECT_GT(sites_with_hits, 0u);
}

TEST(DiagPatterns, BestNominalDelayConsistent) {
  AtpgFixture f;
  stats::Rng rng(21);
  const DiagnosticPatternConfig config;
  for (ArcId site = 7; site < f.nl.arc_count(); site += 37) {
    const auto set =
        generate_diagnostic_patterns(f.model, f.lev, site, config, rng);
    const double d = site_best_nominal_delay(f.model, f.lev, set, site);
    EXPECT_GE(d, 0.0);
    // The empty set reports zero.
    EXPECT_DOUBLE_EQ(
        site_best_nominal_delay(f.model, f.lev, {}, site), 0.0);
  }
}

// ---------------------------------------------------------------------------
// The ATPG's word-parallel site search, detectability gate and fill loop
// against the one-graph-per-pattern oracle (activity_oracle.h): the same
// patterns, bit-identical doubles and the same RNG state afterwards.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The stand-in of `name` at a scale with at least 200 arcs to site on.
Netlist equivalence_standin(const std::string& name) {
  return netlist::make_standin(*netlist::find_profile(name),
                               name == "s1196" ? 0.35 : 0.15, 7);
}

/// Every step-th arc, at least 200 of them.
std::vector<ArcId> equivalence_sites(const Netlist& nl) {
  const std::size_t step = std::max<std::size_t>(1, nl.arc_count() / 200);
  std::vector<ArcId> sites;
  for (std::size_t a = 0; a < nl.arc_count(); a += step) {
    sites.push_back(static_cast<ArcId>(a));
  }
  return sites;
}

class ActivityEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ActivityEquivalence, SiteSearchAndGateMatchOracle) {
  const Netlist nl = equivalence_standin(GetParam());
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const auto sites = equivalence_sites(nl);
  ASSERT_GE(sites.size(), 200u);
  stats::Rng extra_rng(43);
  std::size_t found = 0;
  std::size_t detected = 0;
  for (const ArcId site : sites) {
    stats::Rng got_rng(1000 + site);
    stats::Rng want_rng = got_rng;
    const auto got =
        site_activating_patterns(model, lev, site, 8, 160, got_rng);
    const auto want = test_oracle::oracle_site_activating_patterns(
        model, lev, site, 8, 160, want_rng);
    ASSERT_EQ(got.size(), want.size()) << "site " << site;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].v1, want[i].v1) << "site " << site;
      ASSERT_EQ(got[i].v2, want[i].v2) << "site " << site;
    }
    ASSERT_EQ(got_rng.next(), want_rng.next()) << "site " << site;
    found += got.size();

    // The gate on the site-search set, and on a set of more than 64
    // patterns (two sweep pairs) with the same set in its second word.
    std::vector<logicsim::PatternPair> big;
    for (std::size_t k = 0; k < 70; ++k) {
      big.push_back(random_pattern_pair(nl.inputs().size(), extra_rng));
    }
    big.insert(big.end(), got.begin(), got.end());
    for (const auto& set : {got, big}) {
      const double d = site_best_nominal_delay(model, lev, set, site);
      ASSERT_TRUE(same_bits(d, test_oracle::oracle_site_best_nominal_delay(
                                   model, lev, set, site)))
          << "site " << site << " patterns " << set.size() << " d " << d;
      detected += d > 0.0 ? 1U : 0U;
    }
  }
  EXPECT_GT(found, sites.size());
  EXPECT_GT(detected, sites.size() / 2);
}

TEST_P(ActivityEquivalence, FillsMatchOracle) {
  const Netlist nl = equivalence_standin(GetParam());
  const Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const BitSimulator sim(nl, lev);
  // The cache only prunes sensitizations that fail either way; it keeps
  // the oracle's second sensitize of each path cheap.
  ConflictCache cache(nl);
  const PathDelayAtpg atpg(nl, lev, &cache);
  std::size_t first = 0;
  std::size_t eighth = 0;
  std::size_t none = 0;
  std::size_t sites_seen = 0;
  for (const ArcId site : equivalence_sites(nl)) {
    ++sites_seen;
    for (const auto& path :
         paths::k_heaviest_paths_through(nl, lev, model.means(), site, 4)) {
      for (const bool rising : {true, false}) {
        for (const bool robust : {false, true}) {
          stats::Rng got_rng(7000 + site);
          stats::Rng want_rng = got_rng;
          const auto got =
              atpg.generate(path, rising, robust, got_rng, 8, 300);
          int fill = -1;
          const auto want = test_oracle::oracle_generate(
              atpg, sim, path, rising, robust, want_rng, 8, 300, &fill);
          ASSERT_EQ(got.has_value(), want.has_value()) << "site " << site;
          ASSERT_EQ(got_rng.next(), want_rng.next()) << "site " << site;
          if (!got) continue;
          ASSERT_EQ(got->pattern.v1, want->pattern.v1) << "site " << site;
          ASSERT_EQ(got->pattern.v2, want->pattern.v2) << "site " << site;
          ASSERT_EQ(got->activates, want->activates) << "site " << site;
          first += fill == 0 ? 1U : 0U;
          eighth += fill == 7 ? 1U : 0U;
          none += fill < 0 ? 1U : 0U;
        }
      }
    }
  }
  EXPECT_GE(sites_seen, 200u);
  // The first fill, the last of the eight and none of them each activated
  // somewhere, so every exit of the lane search was compared.
  EXPECT_GT(first, 0u);
  EXPECT_GT(eighth, 0u);
  EXPECT_GT(none, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Standins, ActivityEquivalence, ::testing::Values("s1196", "s9234"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

TEST(RandomPatternPair, CorrectWidth) {
  stats::Rng rng(22);
  const auto p = random_pattern_pair(9, rng);
  EXPECT_EQ(p.v1.size(), 9u);
  EXPECT_EQ(p.v2.size(), 9u);
}

}  // namespace
}  // namespace sddd::atpg
