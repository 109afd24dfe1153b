// Tests for the packed scoring kernel, the scoring loop and the
// signature-column cache: the contract is BIT-IDENTITY with the scalar
// phi() and with the reference scorer in score_oracle.h (score_kernel.h
// states the argument; these tests enforce it), so every floating-point
// comparison here is exact equality, never a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "atpg/pdf_atpg.h"
#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/error_fn.h"
#include "diagnosis/score_kernel.h"
#include "diagnosis/signature_matrix.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "score_oracle.h"
#include "stats/rng.h"
#include "stats/sample_vector.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace sddd::diagnosis {
namespace {

using logicsim::BitSimulator;
using logicsim::PatternPair;
using netlist::ArcId;
using netlist::Levelization;
using netlist::Netlist;

struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_thread_count(0); }
};

// --- PackedBColumn -------------------------------------------------------

TEST(PackedBColumn, MatchesBehaviorMatrixBits) {
  // Widths straddling the 64-bit word boundary, including 0.
  for (const std::size_t n_outputs : {0, 1, 7, 63, 64, 65, 130}) {
    BehaviorMatrix B(n_outputs, 3);
    stats::Rng rng(41 + n_outputs);
    for (std::size_t i = 0; i < n_outputs; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        B.set(i, j, rng.below(3) == 0);
      }
    }
    PackedBColumn packed;
    for (std::size_t j = 0; j < 3; ++j) {
      packed.pack(B, j);
      ASSERT_EQ(packed.bit_count(), n_outputs);
      for (std::size_t i = 0; i < n_outputs; ++i) {
        EXPECT_EQ(packed.test(i), B.at(i, j)) << "output " << i;
      }
    }
  }
}

// --- phi_block vs the scalar phi() ---------------------------------------

TEST(PhiBlock, BitIdenticalToScalarPhi) {
  // Column counts around the 8-lane block boundary, widths around the
  // 64-bit word boundary; random probability columns and fail bits.
  for (const std::size_t n_cols : {1, 7, 8, 9, 17}) {
    for (const std::size_t n_outputs : {0, 1, 7, 63, 64, 65, 130}) {
      stats::Rng rng(7 * n_cols + n_outputs);
      std::vector<std::vector<double>> cols(n_cols,
                                            std::vector<double>(n_outputs));
      std::vector<const double*> ptrs(n_cols);
      for (std::size_t c = 0; c < n_cols; ++c) {
        for (double& s : cols[c]) s = rng.uniform01();
        ptrs[c] = cols[c].data();
      }
      BehaviorMatrix B(n_outputs, 1);
      std::vector<bool> b_bits(n_outputs);
      for (std::size_t i = 0; i < n_outputs; ++i) {
        const bool fails = rng.below(2) == 0;
        b_bits[i] = fails;
        B.set(i, 0, fails);
      }
      PackedBColumn packed;
      packed.pack(B, 0);

      std::vector<double> out(n_cols, -1.0);
      phi_block(ptrs.data(), n_cols, n_outputs, packed, out.data());
      for (std::size_t c = 0; c < n_cols; ++c) {
        EXPECT_EQ(out[c], phi(cols[c], b_bits))
            << "n_cols=" << n_cols << " n_outputs=" << n_outputs
            << " col=" << c;
      }
    }
  }
}

TEST(PhiBlock, AllZeroColumnsAndEmptyPatternSet) {
  // An all-zero signature predicts "no failures": phi is 1 when the chip
  // passes everywhere and exactly 0 at the first failing bit.
  const std::size_t n_outputs = 70;
  std::vector<double> zeros(n_outputs, 0.0);
  std::vector<const double*> ptrs(9, zeros.data());

  BehaviorMatrix pass(n_outputs, 1);
  PackedBColumn packed;
  packed.pack(pass, 0);
  std::vector<double> out(ptrs.size(), -1.0);
  phi_block(ptrs.data(), ptrs.size(), n_outputs, packed, out.data());
  for (const double v : out) EXPECT_EQ(v, 1.0);

  BehaviorMatrix fail(n_outputs, 1);
  fail.set(69, 0, true);
  packed.pack(fail, 0);
  phi_block(ptrs.data(), ptrs.size(), n_outputs, packed, out.data());
  for (const double v : out) EXPECT_EQ(v, 0.0);

  // Empty TP degenerates to the empty product.
  phi_block(ptrs.data(), ptrs.size(), 0, packed, out.data());
  for (const double v : out) EXPECT_EQ(v, 1.0);
}

// --- Full-stack: diagnose() vs the reference scorer ----------------------

struct KernelFixture {
  Netlist nl;
  Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  timing::DelayField dict_field;
  timing::DelayField inst_field;
  BitSimulator sim;
  timing::DynamicTimingSimulator dict_sim;
  timing::DynamicTimingSimulator inst_sim;
  defect::DefectSizeModel size_model;
  std::vector<PatternPair> patterns;
  double clk = 0.0;
  std::vector<Method> methods = {Method::kSimI, Method::kSimII,
                                 Method::kSimIII, Method::kRev};

  KernelFixture()
      : nl([] {
          netlist::SynthSpec spec;
          spec.n_inputs = 14;
          spec.n_outputs = 10;
          spec.n_gates = 110;
          spec.depth = 10;
          spec.seed = 113;
          return netlist::synthesize(spec);
        }()),
        lev(nl),
        model(nl, lib),
        dict_field(model, 120, 0.03, 1001),
        inst_field(model, 120, 0.03, 1002),
        sim(nl, lev),
        dict_sim(dict_field, lev),
        inst_sim(inst_field, lev),
        size_model(model.mean_cell_delay(), 0.5, 1.0, 0.5, 1003) {
    stats::Rng rng(1004);
    for (int i = 0; i < 8; ++i) {
      patterns.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
    stats::SampleVector delta(dict_field.sample_count(), 0.0);
    for (const auto& p : patterns) {
      const paths::TransitionGraph tg(sim, lev, p);
      const auto m = dict_sim.simulate(tg);
      delta.max_with(dict_sim.induced_delay(tg, m));
    }
    clk = delta.quantile(0.9);
  }

  /// A chip that observably fails: a defect near `preferred` (the random
  /// patterns do not sensitize every arc, so scan forward to one they do),
  /// size escalated until the behavior matrix shows a failing cell.
  BehaviorMatrix failing_chip(ArcId preferred, std::size_t sample_index) const {
    for (ArcId offset = 0; offset < nl.arc_count(); ++offset) {
      const auto arc =
          static_cast<ArcId>((preferred + offset) % nl.arc_count());
      double size = size_model.marginal_mean();
      for (int tries = 0; tries < 12; ++tries) {
        auto B = observe_behavior(inst_sim, sim, lev, patterns, sample_index,
                                  std::make_pair(arc, size), clk);
        if (B.any_failure()) return B;
        size *= 2.0;
      }
    }
    ADD_FAILURE() << "no arc yields a failing chip";
    return BehaviorMatrix(nl.outputs().size(), patterns.size());
  }

  Diagnoser diagnoser(const SignatureCache* cache, bool match_e = true) const {
    DiagnoserConfig config;
    config.capture_phi = true;
    config.match_on_total_probability = match_e;
    config.cache = cache;
    return Diagnoser(dict_sim, sim, lev, size_model, config);
  }

  DiagnosisResult diagnose(const BehaviorMatrix& B, const SignatureCache* cache,
                           bool match_e = true) const {
    return diagnoser(cache, match_e).diagnose(patterns, B, methods, clk);
  }

  /// The reference scores of B's suspects.
  DiagnosisResult oracle(const BehaviorMatrix& B, bool match_e = true) const {
    return test_oracle::oracle_diagnosis(
        dict_sim, sim, lev, size_model, patterns, B,
        diagnoser(nullptr).extract_suspects(patterns, B), methods, clk,
        match_e);
  }
};

using test_oracle::expect_same_diagnosis;

std::uint64_t counter_value(const char* name) {
  const auto counters = obs::MetricsRegistry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

TEST(SignatureCache, KernelPathBitIdenticalToScalar) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             /*match_on_total_probability=*/true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 0);
  const auto want = f.oracle(B);
  ASSERT_FALSE(want.suspects.empty());
  expect_same_diagnosis(f.diagnose(B, &cache), want);
}

TEST(SignatureCache, ColumnsReusedAcrossChips) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 3);
  const auto B = f.failing_chip(arc, 0);
  const auto want = f.oracle(B);

  // Cold cache: every sensitized column is built.
  expect_same_diagnosis(f.diagnose(B, &cache), want);
  const auto after_first = cache.stats();
  EXPECT_GT(after_first.misses, 0U);
  EXPECT_GT(after_first.bytes, 0U);
  EXPECT_EQ(cache.output_count(), f.nl.outputs().size());

  // Warm cache: a second chip with the same behavior shape re-asks for
  // the same (pattern, suspect) columns - all hits, zero new builds or
  // bytes - and still scores exactly as the reference.
  expect_same_diagnosis(f.diagnose(B, &cache), want);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.bytes, after_first.bytes);
  EXPECT_GT(after_second.hits, after_first.hits);

  // A different chip on the half-warm cache.
  const auto B2 = f.failing_chip(static_cast<ArcId>(f.nl.arc_count() / 5), 1);
  expect_same_diagnosis(f.diagnose(B2, &cache), f.oracle(B2));
}

TEST(SignatureCache, ByteIdenticalAcrossThreadCounts) {
  const ThreadCountGuard guard;
  const KernelFixture f;
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 2);
  const auto want = f.oracle(B);

  runtime::set_thread_count(1);
  const SignatureCache cache1(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                              true);
  expect_same_diagnosis(f.diagnose(B, &cache1), want);

  runtime::set_thread_count(4);
  f.dict_sim.prewarm();
  const SignatureCache cache4(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                              true);
  expect_same_diagnosis(f.diagnose(B, &cache4), want);
  expect_same_diagnosis(f.diagnose(B, nullptr), want);
}

TEST(SignatureCache, SharedCacheAcrossParallelChips) {
  // The experiment-loop shape: one cache, many chips diagnosed by parallel
  // workers.  Every chip must score exactly as its reference.
  const ThreadCountGuard guard;
  const KernelFixture f;
  constexpr std::size_t kChips = 4;
  std::vector<BehaviorMatrix> chips;
  std::vector<DiagnosisResult> want;
  for (std::size_t c = 0; c < kChips; ++c) {
    const auto arc =
        static_cast<ArcId>((c + 1) * f.nl.arc_count() / (kChips + 2));
    chips.push_back(f.failing_chip(arc, c));
    want.push_back(f.oracle(chips.back()));
  }

  runtime::set_thread_count(4);
  f.dict_sim.prewarm();
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  std::vector<DiagnosisResult> got(kChips);
  runtime::parallel_for(kChips, [&](std::size_t c) {
    got[c] = f.diagnose(chips[c], &cache);
  });
  for (std::size_t c = 0; c < kChips; ++c) {
    expect_same_diagnosis(got[c], want[c]);
  }
}

TEST(SignatureCache, SignatureMatchModeAlsoBitIdentical) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             /*match_on_total_probability=*/false);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 0);
  const auto want = f.oracle(B, /*match_e=*/false);
  expect_same_diagnosis(f.diagnose(B, &cache, false), want);  // cold
  expect_same_diagnosis(f.diagnose(B, &cache, false), want);  // warm
  expect_same_diagnosis(f.diagnose(B, nullptr, false), want);
}

TEST(Diagnoser, NullCacheMatchesOracle) {
  // No shared cache: every diagnose() scores through a call-local one.
  const KernelFixture f;
  for (const ArcId arc : {static_cast<ArcId>(f.nl.arc_count() / 4),
                          static_cast<ArcId>(f.nl.arc_count() / 2)}) {
    const auto B = f.failing_chip(arc, 3);
    expect_same_diagnosis(f.diagnose(B, nullptr), f.oracle(B));
    expect_same_diagnosis(f.diagnose(B, nullptr, false), f.oracle(B, false));
  }
}

TEST(Diagnoser, RejectsBehaviorOfWrongShape) {
  // B must be |outputs| x |patterns|: an extra row would index past the
  // netlist's outputs, a missing one would score a prefix of each column.
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const auto B = f.failing_chip(static_cast<ArcId>(f.nl.arc_count() / 2), 0);
  const std::size_t n_outputs = B.output_count();
  for (const std::size_t rows : {n_outputs + 1, n_outputs - 1}) {
    BehaviorMatrix wrong(rows, B.pattern_count());
    for (std::size_t i = 0; i < std::min(rows, n_outputs); ++i) {
      for (std::size_t j = 0; j < B.pattern_count(); ++j) {
        wrong.set(i, j, B.at(i, j));
      }
    }
    for (const SignatureCache* c : {&cache, static_cast<const SignatureCache*>(
                                                nullptr)}) {
      EXPECT_THROW((void)f.diagnose(wrong, c), std::invalid_argument)
          << rows << " rows, cache " << (c != nullptr);
    }
  }
  BehaviorMatrix short_cols(n_outputs, B.pattern_count() - 1);
  EXPECT_THROW((void)f.diagnose(short_cols, &cache), std::invalid_argument);
}

TEST(SignatureCache, NoColumnBuiltForUnsensitizedSuspects) {
  // Collapse: a suspect a pattern does not sensitize takes the pattern's
  // shared baseline column; the cache builds (and counts) only the
  // sensitized ones, and the loop evaluates one phi for all holders of
  // the shared column.
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const auto B = f.failing_chip(static_cast<ArcId>(f.nl.arc_count() / 2), 0);
  const auto suspects = f.diagnoser(nullptr).extract_suspects(f.patterns, B);
  std::uint64_t sensitized = 0;
  std::uint64_t want_evals = 0;
  for (const PatternPair& p : f.patterns) {
    const auto& active = cache.collapse_slice(p).active;
    std::uint64_t on = 0;
    for (const ArcId a : suspects) on += active[a] != 0 ? 1 : 0;
    sensitized += on;
    want_evals += on + (on < suspects.size() ? 1 : 0);
  }
  const std::uint64_t all_pairs = suspects.size() * f.patterns.size();
  ASSERT_LT(sensitized, all_pairs) << "every pair sensitized: nothing to test";

  const auto want = f.oracle(B);
  const std::uint64_t built0 = counter_value("dict.e_columns");
  const std::uint64_t evals0 = counter_value("diag.phi_evals");
  const auto got = f.diagnose(B, &cache);
  const std::uint64_t built = counter_value("dict.e_columns") - built0;
  const std::uint64_t evals = counter_value("diag.phi_evals") - evals0;
  expect_same_diagnosis(got, want);
  EXPECT_EQ(cache.stats().misses, sensitized);
  EXPECT_EQ(cache.stats().hits, 0U);
  EXPECT_EQ(built, sensitized);
  EXPECT_EQ(evals, want_evals);
  EXPECT_LT(evals, all_pairs);

  // The shared column is the baseline M column itself.
  const PatternSlice slice(f.dict_sim, f.sim, f.lev, f.patterns[0], f.clk);
  EXPECT_EQ(cache.collapse_slice(f.patterns[0]).baseline, slice.m_column());
}

TEST(SignatureCache, MismatchedCacheRejected) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 0);

  DiagnoserConfig config;
  config.cache = &cache;
  const Diagnoser d(f.dict_sim, f.sim, f.lev, f.size_model, config);
  EXPECT_THROW((void)d.diagnose(f.patterns, B, f.methods, f.clk * 1.25),
               std::invalid_argument);

  config.match_on_total_probability = false;  // cache built with true
  const Diagnoser d2(f.dict_sim, f.sim, f.lev, f.size_model, config);
  EXPECT_THROW((void)d2.diagnose(f.patterns, B, f.methods, f.clk),
               std::invalid_argument);
}

TEST(SignatureCache, SizesMatchModelSamples) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 4);
  const auto sizes = cache.sizes_for(arc);
  ASSERT_EQ(sizes.size(), f.dict_field.sample_count());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    EXPECT_EQ(sizes[k], f.size_model.sample(arc, k));
  }
  // Same span on re-lookup: pointer-stable across map growth.
  for (ArcId a = 0; a < 32 && a < f.nl.arc_count(); ++a) {
    (void)cache.sizes_for(a);
  }
  EXPECT_EQ(cache.sizes_for(arc).data(), sizes.data());
}

}  // namespace
}  // namespace sddd::diagnosis
