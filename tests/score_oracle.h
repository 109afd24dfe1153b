// score_oracle.h - The reference the scoring-loop tests compare against.
//
// Built only from the pieces the loop is meant to reproduce, and sharing
// no code with score_suspects(): each suspect's column straight from its
// PatternSlice (e_column under E matching, signature_column under S),
// the scalar phi() and one ScoreAccumulator per method, fed in pattern
// order.  perfbench's diagnose output check uses the same pieces.  The
// loop's contract is bit-identity with this reference, so every
// comparison is exact equality, never a tolerance.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/error_fn.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "timing/dynamic_sim.h"

namespace sddd::test_oracle {

/// Scores `suspects` against B the slow, obvious way; phi is always
/// captured.
inline diagnosis::DiagnosisResult oracle_diagnosis(
    const timing::DynamicTimingSimulator& dict_sim,
    const logicsim::BitSimulator& logic_sim, const netlist::Levelization& lev,
    const defect::DefectSizeModel& size_model,
    std::span<const logicsim::PatternPair> patterns,
    const diagnosis::BehaviorMatrix& B,
    std::vector<netlist::ArcId> suspects,
    std::span<const diagnosis::Method> methods, double clk,
    bool match_on_total_probability) {
  diagnosis::DiagnosisResult r;
  r.suspects = std::move(suspects);
  r.methods.assign(methods.begin(), methods.end());
  r.mc_samples = dict_sim.field().sample_count();
  const std::size_t n_suspects = r.suspects.size();
  std::vector<std::vector<diagnosis::ScoreAccumulator>> acc;
  for (const diagnosis::Method m : methods) {
    acc.emplace_back(n_suspects, diagnosis::ScoreAccumulator(m));
  }
  r.phi.assign(n_suspects, std::vector<double>(patterns.size()));
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const diagnosis::PatternSlice slice(dict_sim, logic_sim, lev, patterns[j],
                                        clk);
    std::vector<bool> b(B.output_count());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = B.at(i, j);
    for (std::size_t s = 0; s < n_suspects; ++s) {
      const std::vector<double> col =
          match_on_total_probability
              ? slice.e_column(r.suspects[s], size_model)
              : slice.signature_column(r.suspects[s], size_model);
      const double p = diagnosis::phi(col, b);
      r.phi[s][j] = p;
      for (auto& per_method : acc) per_method[s].add_phi(p);
    }
  }
  r.scores.assign(acc.size(), std::vector<double>(n_suspects));
  r.keys.assign(acc.size(), std::vector<double>(n_suspects));
  for (std::size_t m = 0; m < acc.size(); ++m) {
    for (std::size_t s = 0; s < n_suspects; ++s) {
      r.scores[m][s] = acc[m][s].finish(patterns.size());
      r.keys[m][s] = acc[m][s].ranking_key(patterns.size());
    }
  }
  return r;
}

/// Exact equality of everything a diagnosis reports.  `got` must have
/// captured phi.
inline void expect_same_diagnosis(const diagnosis::DiagnosisResult& got,
                                  const diagnosis::DiagnosisResult& want) {
  EXPECT_EQ(got.suspects, want.suspects);
  EXPECT_EQ(got.methods, want.methods);
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.keys, want.keys);
  EXPECT_EQ(got.phi, want.phi);
  EXPECT_EQ(got.mc_samples, want.mc_samples);
}

}  // namespace sddd::test_oracle
