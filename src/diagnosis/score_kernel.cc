#include "diagnosis/score_kernel.h"

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace sddd::diagnosis {

namespace {

// CPU ns per scored pattern, and its split: column acquisition (cache
// lookups and builds, store gathers, B packing) vs packed phi evaluation.
obs::Counter& score_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.score_ns");
  return c;
}

obs::Counter& kernel_build_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.kernel.build_ns");
  return c;
}

obs::Counter& kernel_phi_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.kernel.phi_ns");
  return c;
}

// One pattern scored over `n_columns` suspect-owned columns (the shared
// column's single evaluation is not counted here).
void note_kernel_pattern(std::size_t n_columns) {
  static obs::Counter& patterns =
      obs::MetricsRegistry::instance().register_counter("diag.kernel.patterns");
  static obs::Counter& suspects =
      obs::MetricsRegistry::instance().register_counter("diag.kernel.suspects");
  patterns.add(1);
  suspects.add(static_cast<std::uint64_t>(n_columns));
}

}  // namespace

void PackedBColumn::pack(const BehaviorMatrix& B, std::size_t pattern) {
  n_ = B.output_count();
  words_.assign((n_ + 63) / 64, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    if (B.at(k, pattern)) {
      words_[k >> 6] |= std::uint64_t{1} << (k & 63);
    }
  }
}

void phi_block(const double* const* cols, std::size_t n_cols,
               std::size_t n_outputs, const PackedBColumn& b, double* out) {
  std::size_t base = 0;
  for (; base + kKernelLanes <= n_cols; base += kKernelLanes) {
    const double* c0 = cols[base + 0];
    const double* c1 = cols[base + 1];
    const double* c2 = cols[base + 2];
    const double* c3 = cols[base + 3];
    const double* c4 = cols[base + 4];
    const double* c5 = cols[base + 5];
    const double* c6 = cols[base + 6];
    const double* c7 = cols[base + 7];
    double a0 = 1.0, a1 = 1.0, a2 = 1.0, a3 = 1.0;
    double a4 = 1.0, a5 = 1.0, a6 = 1.0, a7 = 1.0;
    for (std::size_t k = 0; k < n_outputs; ++k) {
      // Select, not blend: `fail ? s : 1 - s` is the scalar phi() factor
      // verbatim, so each lane's product is the scalar product bit for bit.
      const bool fail = b.test(k);
      a0 *= fail ? c0[k] : 1.0 - c0[k];
      a1 *= fail ? c1[k] : 1.0 - c1[k];
      a2 *= fail ? c2[k] : 1.0 - c2[k];
      a3 *= fail ? c3[k] : 1.0 - c3[k];
      a4 *= fail ? c4[k] : 1.0 - c4[k];
      a5 *= fail ? c5[k] : 1.0 - c5[k];
      a6 *= fail ? c6[k] : 1.0 - c6[k];
      a7 *= fail ? c7[k] : 1.0 - c7[k];
    }
    out[base + 0] = a0;
    out[base + 1] = a1;
    out[base + 2] = a2;
    out[base + 3] = a3;
    out[base + 4] = a4;
    out[base + 5] = a5;
    out[base + 6] = a6;
    out[base + 7] = a7;
  }
  for (; base < n_cols; ++base) {
    const double* c = cols[base];
    double a = 1.0;
    for (std::size_t k = 0; k < n_outputs; ++k) {
      a *= b.test(k) ? c[k] : 1.0 - c[k];
    }
    out[base] = a;
  }
}

void score_suspects(const ColumnSource& source, const BehaviorMatrix& B,
                    bool capture_phi, DiagnosisResult& result) {
  const std::size_t n_suspects = result.suspects.size();
  const std::size_t n_patterns = B.pattern_count();
  const std::size_t n_outputs = B.output_count();
  if (capture_phi) {
    result.phi.assign(n_suspects, std::vector<double>(n_patterns, 0.0));
  }
  // One method-free sum set per suspect, filled pattern by pattern.
  std::vector<PhiSums> sums(n_suspects);

  std::vector<const double*> cols;
  std::vector<const double*> own;  // the columns not shared, compacted
  std::vector<double> own_phi;
  std::vector<PhiTerms> own_terms;
  PackedBColumn b;
  for (std::size_t j = 0; j < n_patterns; ++j) {
    SDDD_SPAN(span, "diag.kernel.pattern");
    span.arg("pattern", static_cast<std::int64_t>(j))
        .arg("suspects", static_cast<std::int64_t>(n_suspects));
    const obs::ScopedNsTimer timer(score_ns_counter());
    const double* shared = nullptr;
    {
      const obs::ScopedNsTimer build_timer(kernel_build_ns_counter());
      shared = source.columns(j, result.suspects, cols);
      b.pack(B, j);
    }
    own.clear();
    for (const double* col : cols) {
      if (col != shared) own.push_back(col);
    }
    const bool any_shared = own.size() < n_suspects;
    {
      const obs::ScopedNsTimer phi_timer(kernel_phi_ns_counter());
      // phi_block is per-column independent, so compaction changes no
      // value: a shared suspect gets exactly the phi its own (bit-equal)
      // column would have produced, and its terms are those phi's terms.
      PhiTerms shared_terms;
      if (any_shared) {
        double shared_phi = 0.0;
        phi_block(&shared, 1, n_outputs, b, &shared_phi);
        shared_terms = PhiTerms::of(shared_phi);
      }
      own_phi.resize(own.size());
      phi_block(own.data(), own.size(), n_outputs, b, own_phi.data());
      own_terms.resize(own.size());
      for (std::size_t i = 0; i < own.size(); ++i) {
        own_terms[i] = PhiTerms::of(own_phi[i]);
      }
      std::size_t next = 0;
      for (std::size_t s = 0; s < n_suspects; ++s) {
        const PhiTerms& t =
            cols[s] != shared ? own_terms[next++] : shared_terms;
        if (capture_phi) result.phi[s][j] = t.phi;
        sums[s].add(t);
      }
    }
    note_phi_evals(own.size() + (any_shared ? 1 : 0));
    note_kernel_pattern(own.size());
  }

  const std::size_t n_methods = result.methods.size();
  result.scores.assign(n_methods, std::vector<double>(n_suspects));
  result.keys.assign(n_methods, std::vector<double>(n_suspects));
  for (std::size_t m = 0; m < n_methods; ++m) {
    const Method method = result.methods[m];
    for (std::size_t s = 0; s < n_suspects; ++s) {
      result.scores[m][s] = sums[s].finish(method, n_patterns);
      result.keys[m][s] = sums[s].ranking_key(method, n_patterns);
    }
  }
  obs::Recorder::instance().record(obs::EventKind::kDiagnose, "",
                                   B.failure_count(), n_suspects, n_patterns);
}

}  // namespace sddd::diagnosis
