#include "introspect/explain.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "diagnosis/dictionary.h"
#include "diagnosis/resolution.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sddd::introspect {

using diagnosis::Method;
using netlist::ArcId;
using obs::json_double;

namespace {

obs::Counter& reports_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("introspect.reports");
  return c;
}

obs::Counter& candidates_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "introspect.candidates");
  return c;
}

obs::Counter& cells_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("introspect.cells");
  return c;
}

/// Whether a method's score grows when any phi_j grows.  True for the
/// Sim methods; Alg_rev's distance shrinks instead (and ranks low-first).
bool score_increases_with_phi(Method m) { return m != Method::kRev; }

std::string interval_json(const Interval& iv) {
  return "[" + json_double(iv.lo) + ", " + json_double(iv.hi) + "]";
}

/// Everything accumulated for one evaluated arc.  Detailed candidates keep
/// their per-pattern breakdowns; separability-only extras keep just the
/// score bounds.
struct ArcEval {
  std::size_t suspect_index = 0;
  double phi_sum = 0.0;
  std::vector<diagnosis::ScoreAccumulator> acc_lo;
  std::vector<diagnosis::ScoreAccumulator> acc_hi;
  std::vector<PatternBreakdown> patterns;  ///< empty unless detailed
};

}  // namespace

ExplanationReport explain_diagnosis(
    const timing::DynamicTimingSimulator& sim,
    const logicsim::BitSimulator& logic_sim, const netlist::Levelization& lev,
    const defect::DefectSizeModel& size_model,
    std::span<const logicsim::PatternPair> patterns,
    const diagnosis::BehaviorMatrix& B,
    const diagnosis::DiagnosisResult& diag, double clk,
    const ExplainConfig& config) {
  SDDD_SPAN(span, "introspect.explain");
  span.arg("suspects", static_cast<std::int64_t>(diag.suspects.size()))
      .arg("top_k", static_cast<std::int64_t>(config.top_k));

  const std::size_t n_patterns = patterns.size();
  const std::size_t n_outputs = B.output_count();
  const std::size_t n = sim.field().sample_count();

  ExplanationReport report;
  report.clk = clk;
  report.mc_samples = n;
  report.n_patterns = n_patterns;
  report.n_outputs = n_outputs;
  report.n_suspects = diag.suspects.size();
  report.primary = config.primary;

  if (diag.suspects.empty()) {
    reports_counter().add(1);
    return report;
  }

  // Best-first orders per method, shared by candidate ranks and the
  // separability verdicts.
  std::map<Method, std::vector<diagnosis::RankedSuspect>> ranked;
  for (const Method m : diag.methods) ranked.emplace(m, diag.ranked(m));
  const auto primary_it = ranked.find(config.primary);
  if (primary_it == ranked.end()) {
    throw std::invalid_argument(
        "explain_diagnosis: primary method not in the diagnosis");
  }
  const auto& primary_order = primary_it->second;

  // Arcs to evaluate: the top-K under the primary method (full breakdown)
  // plus the top-2 under every method (interval-only, for separability).
  const std::size_t top_k = std::min(config.top_k, primary_order.size());
  std::vector<ArcId> detailed;
  for (std::size_t i = 0; i < top_k; ++i) {
    detailed.push_back(primary_order[i].arc);
  }
  std::vector<ArcId> eval_arcs = detailed;
  for (const auto& [m, order] : ranked) {
    for (std::size_t i = 0; i < std::min<std::size_t>(2, order.size()); ++i) {
      eval_arcs.push_back(order[i].arc);
    }
  }
  std::sort(eval_arcs.begin(), eval_arcs.end());
  eval_arcs.erase(std::unique(eval_arcs.begin(), eval_arcs.end()),
                  eval_arcs.end());

  std::map<ArcId, ArcEval> evals;
  for (const ArcId arc : eval_arcs) {
    const auto it =
        std::find(diag.suspects.begin(), diag.suspects.end(), arc);
    ArcEval ev;
    ev.suspect_index =
        static_cast<std::size_t>(it - diag.suspects.begin());
    for (const Method m : diag.methods) {
      ev.acc_lo.emplace_back(m);
      ev.acc_hi.emplace_back(m);
    }
    evals.emplace(arc, std::move(ev));
  }
  const auto is_detailed = [&](ArcId arc) {
    return std::find(detailed.begin(), detailed.end(), arc) != detailed.end();
  };

  // One pass per pattern (the slice holds the only baseline arrival matrix
  // alive), serially over the handful of evaluated arcs - deterministic by
  // construction, no parallel region to order.
  std::vector<bool> b_col(n_outputs);
  for (std::size_t j = 0; j < n_patterns; ++j) {
    const diagnosis::PatternSlice slice(sim, logic_sim, lev, patterns[j],
                                        clk);
    for (std::size_t i = 0; i < n_outputs; ++i) b_col[i] = B.at(i, j);
    std::size_t observed_fails = 0;
    for (std::size_t i = 0; i < n_outputs; ++i) {
      observed_fails += b_col[i] ? 1U : 0U;
    }
    const auto& m_col = slice.m_column();
    for (const ArcId arc : eval_arcs) {
      ArcEval& ev = evals.at(arc);
      // Recompute the exact column phi was matched on, with the same call
      // the diagnoser used, so the recomputed phi is bit-identical to the
      // captured one.
      const std::vector<double> e_col = slice.e_column(arc, size_model);
      std::vector<double> matched_col;
      if (config.match_on_total_probability) {
        matched_col = e_col;
      } else {
        matched_col = slice.signature_column(arc, size_model);
      }
      const double phi_j = diagnosis::phi(matched_col, b_col);
      if (!diag.phi.empty() && diag.phi[ev.suspect_index][j] != phi_j) {
        throw NumericError(
            "explain_diagnosis: recomputed phi disagrees with the captured "
            "phi matrix (non-deterministic dictionary?)");
      }
      // Interval propagation: Wilson per cell, monotone map per factor,
      // product in output order (the same order phi() multiplies in).
      Interval phi_iv{1.0, 1.0};
      PatternBreakdown pb;
      const bool keep_cells = is_detailed(arc);
      if (keep_cells) {
        pb.pattern = j;
        pb.observed_fails = observed_fails;
        pb.cells.reserve(n_outputs);
      }
      for (std::size_t i = 0; i < n_outputs; ++i) {
        const double matched = matched_col[i];
        const Interval matched_iv = wilson_interval(matched, n);
        const Interval f_iv = factor_interval(matched_iv, b_col[i]);
        phi_iv.lo *= f_iv.lo;
        phi_iv.hi *= f_iv.hi;
        if (keep_cells) {
          CellBreakdown cell;
          cell.output = i;
          cell.observed_fail = b_col[i];
          cell.m = m_col[i];
          cell.e = e_col[i];
          cell.s = std::max(e_col[i] - m_col[i], 0.0);
          cell.matched = matched;
          cell.matched_ci = matched_iv;
          cell.factor = b_col[i] ? matched : 1.0 - matched;
          cell.agrees = cell.factor >= 0.5;
          pb.cells.push_back(cell);
        }
      }
      ev.phi_sum += phi_j;
      for (auto& a : ev.acc_lo) a.add_phi(phi_iv.lo);
      for (auto& a : ev.acc_hi) a.add_phi(phi_iv.hi);
      if (keep_cells) {
        pb.phi = phi_j;
        pb.phi_ci = phi_iv;
        ev.patterns.push_back(std::move(pb));
        cells_counter().add(n_outputs);
      }
    }
  }

  // Score intervals.  Each method score is monotone in every phi_j, so the
  // two extreme accumulators bound it: increasing methods map [phi_lo,
  // phi_hi] to [score(lo), score(hi)], Alg_rev reverses the endpoints.
  const auto score_ci = [&](const ArcEval& ev, std::size_t mi) {
    const double a = ev.acc_lo[mi].finish(n_patterns);
    const double b = ev.acc_hi[mi].finish(n_patterns);
    return score_increases_with_phi(diag.methods[mi]) ? Interval{a, b}
                                                      : Interval{b, a};
  };
  const auto rank_under = [&](Method m, ArcId arc) {
    const auto& order = ranked.at(m);
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i].arc == arc) return static_cast<int>(i);
    }
    return -1;
  };

  // Separability: the rank-1 interval must clear the rank-2 interval in
  // the method's ranking direction.  With a single suspect there is
  // nothing to confuse the candidate with.
  for (std::size_t mi = 0; mi < diag.methods.size(); ++mi) {
    const Method m = diag.methods[mi];
    const auto& order = ranked.at(m);
    SeparabilityVerdict v;
    v.method = m;
    if (order.size() < 2) {
      v.separable_at_95 = true;
    } else {
      const Interval top1 = score_ci(evals.at(order[0].arc), mi);
      const Interval top2 = score_ci(evals.at(order[1].arc), mi);
      v.separable_at_95 = score_increases_with_phi(m)
                              ? top1.lo > top2.hi
                              : top1.hi < top2.lo;
    }
    report.separability.push_back(v);
  }

  // Near-tie flag under the primary method.
  {
    const auto pm_it =
        std::find(diag.methods.begin(), diag.methods.end(), config.primary);
    const auto pmi =
        static_cast<std::size_t>(pm_it - diag.methods.begin());
    if (primary_order.size() >= 2) {
      const auto key_of = [&](ArcId arc) {
        return diag.keys[pmi][evals.at(arc).suspect_index];
      };
      report.top_margin = std::abs(key_of(primary_order[0].arc) -
                                   key_of(primary_order[1].arc));
      report.near_tie =
          score_ci(evals.at(primary_order[0].arc), pmi)
              .overlaps(score_ci(evals.at(primary_order[1].arc), pmi));
    }
  }

  // Logic-domain equivalence classes over the whole suspect set: the hard
  // ambiguity floor no error function can rank through.
  const auto classes = diagnosis::logic_equivalence_classes(
      logic_sim, lev, patterns, diag.suspects);

  for (std::size_t i = 0; i < top_k; ++i) {
    const ArcId arc = primary_order[i].arc;
    ArcEval& ev = evals.at(arc);
    CandidateExplanation cand;
    cand.arc = arc;
    cand.rank = static_cast<int>(i);
    cand.phi_sum = ev.phi_sum;
    for (std::size_t mi = 0; mi < diag.methods.size(); ++mi) {
      MethodScore ms;
      ms.method = diag.methods[mi];
      ms.score = diag.scores[mi][ev.suspect_index];
      ms.ranking_key = diag.keys[mi][ev.suspect_index];
      ms.ci = score_ci(ev, mi);
      ms.rank = rank_under(diag.methods[mi], arc);
      cand.methods.push_back(ms);
    }
    cand.patterns = std::move(ev.patterns);
    cand.class_index = classes.class_of[ev.suspect_index];
    cand.class_members = classes.classes[cand.class_index];
    report.candidates.push_back(std::move(cand));
  }

  reports_counter().add(1);
  candidates_counter().add(report.candidates.size());
  return report;
}

std::string to_json(const ExplanationReport& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"sddd-explain-v1\",\n";
  os << "  \"circuit\": " << obs::json_string(r.circuit) << ",\n";
  os << "  \"run_id\": " << obs::json_string(r.run_id) << ",\n";
  os << "  \"seed\": " << r.seed << ",\n";
  os << "  \"trial\": " << r.trial << ",\n";
  os << "  \"clk\": " << json_double(r.clk) << ",\n";
  os << "  \"mc_samples\": " << r.mc_samples << ",\n";
  os << "  \"n_patterns\": " << r.n_patterns << ",\n";
  os << "  \"n_outputs\": " << r.n_outputs << ",\n";
  os << "  \"n_suspects\": " << r.n_suspects << ",\n";
  os << "  \"injected_arc\": "
     << (r.injected_arc == netlist::kInvalidArc
             ? std::string("-1")
             : std::to_string(r.injected_arc))
     << ",\n";
  os << "  \"injected_size\": " << json_double(r.injected_size) << ",\n";
  os << "  \"primary_method\": \"" << diagnosis::method_name(r.primary)
     << "\",\n";
  os << "  \"top_margin\": " << json_double(r.top_margin) << ",\n";
  os << "  \"near_tie\": " << (r.near_tie ? "true" : "false") << ",\n";
  os << "  \"rank_separable_at_95\": {";
  for (std::size_t i = 0; i < r.separability.size(); ++i) {
    const auto& v = r.separability[i];
    os << (i == 0 ? "" : ", ") << "\"" << diagnosis::method_name(v.method)
       << "\": " << (v.separable_at_95 ? "true" : "false");
  }
  os << "},\n";
  os << "  \"candidates\": [";
  for (std::size_t c = 0; c < r.candidates.size(); ++c) {
    const auto& cand = r.candidates[c];
    os << (c == 0 ? "\n" : ",\n");
    os << "    {\"arc\": " << cand.arc << ", \"rank\": " << cand.rank
       << ", \"is_injected\": "
       << (cand.arc == r.injected_arc ? "true" : "false")
       << ", \"phi_sum\": " << json_double(cand.phi_sum) << ",\n";
    os << "     \"class_index\": " << cand.class_index
       << ", \"class_size\": " << cand.class_members.size()
       << ", \"class_members\": [";
    for (std::size_t i = 0; i < cand.class_members.size(); ++i) {
      os << (i == 0 ? "" : ", ") << cand.class_members[i];
    }
    os << "],\n";
    os << "     \"methods\": [";
    for (std::size_t i = 0; i < cand.methods.size(); ++i) {
      const auto& ms = cand.methods[i];
      os << (i == 0 ? "\n" : ",\n") << "       {\"method\": \""
         << diagnosis::method_name(ms.method) << "\", \"rank\": " << ms.rank
         << ", \"score\": " << json_double(ms.score)
         << ", \"ranking_key\": " << json_double(ms.ranking_key)
         << ", \"ci\": " << interval_json(ms.ci) << "}";
    }
    os << "\n     ],\n";
    os << "     \"patterns\": [";
    for (std::size_t j = 0; j < cand.patterns.size(); ++j) {
      const auto& pb = cand.patterns[j];
      os << (j == 0 ? "\n" : ",\n") << "       {\"pattern\": " << pb.pattern
         << ", \"observed_fails\": " << pb.observed_fails
         << ", \"phi\": " << json_double(pb.phi)
         << ", \"ci\": " << interval_json(pb.phi_ci) << ", \"cells\": [";
      for (std::size_t i = 0; i < pb.cells.size(); ++i) {
        const auto& cell = pb.cells[i];
        os << (i == 0 ? "\n" : ",\n") << "         {\"output\": "
           << cell.output << ", \"b\": " << (cell.observed_fail ? 1 : 0)
           << ", \"m\": " << json_double(cell.m)
           << ", \"e\": " << json_double(cell.e)
           << ", \"s\": " << json_double(cell.s)
           << ", \"matched\": " << json_double(cell.matched)
           << ", \"matched_ci\": " << interval_json(cell.matched_ci)
           << ", \"factor\": " << json_double(cell.factor)
           << ", \"agrees\": " << (cell.agrees ? "true" : "false") << "}";
      }
      os << "\n       ]}";
    }
    os << "\n     ]}";
  }
  os << "\n  ]\n";
  os << "}\n";
  return os.str();
}

std::string to_markdown(const ExplanationReport& r) {
  std::ostringstream os;
  char buf[256];
  os << "# Diagnosis explanation - " << r.circuit << ", trial " << r.trial
     << "\n\n";
  os << "- run id: `" << r.run_id << "` (seed " << r.seed << ")\n";
  std::snprintf(buf, sizeof buf,
                "- clk %.4f, %zu Monte-Carlo samples behind every "
                "dictionary entry\n",
                r.clk, r.mc_samples);
  os << buf;
  os << "- " << r.n_patterns << " patterns x " << r.n_outputs
     << " outputs, " << r.n_suspects << " suspects\n";
  if (r.injected_arc != netlist::kInvalidArc) {
    std::snprintf(buf, sizeof buf,
                  "- injected defect: arc %u, size %.4f (ground truth)\n",
                  r.injected_arc, r.injected_size);
    os << buf;
  }
  os << "\n## Confidence\n\n";
  os << "| method | rank-1 separable from rank-2 at 95%? |\n";
  os << "|---|---|\n";
  for (const auto& v : r.separability) {
    os << "| " << diagnosis::method_name(v.method) << " | "
       << (v.separable_at_95 ? "yes" : "no") << " |\n";
  }
  std::snprintf(buf, sizeof buf,
                "\nrank-1 vs rank-2 margin under %.*s: %.6g (%s)\n",
                static_cast<int>(diagnosis::method_name(r.primary).size()),
                diagnosis::method_name(r.primary).data(), r.top_margin,
                r.near_tie ? "NEAR TIE: score intervals overlap"
                           : "intervals do not overlap");
  os << buf;

  for (const auto& cand : r.candidates) {
    os << "\n## Candidate " << cand.rank + 1 << ": arc " << cand.arc;
    if (cand.arc == r.injected_arc) os << " (the injected defect)";
    os << "\n\n";
    if (cand.class_members.size() > 1) {
      os << "Logic equivalence class of " << cand.class_members.size()
         << " arcs (";
      for (std::size_t i = 0; i < cand.class_members.size(); ++i) {
        os << (i == 0 ? "" : ", ") << cand.class_members[i];
      }
      os << "): no 0/1 observation of this pattern set can rank these "
            "apart; timing signatures are the only separator.\n\n";
    }
    os << "| method | rank | score | 95% CI |\n|---|---|---|---|\n";
    for (const auto& ms : cand.methods) {
      std::snprintf(buf, sizeof buf, "| %.*s | %d | %.6g | [%.6g, %.6g] |\n",
                    static_cast<int>(diagnosis::method_name(ms.method).size()),
                    diagnosis::method_name(ms.method).data(), ms.rank,
                    ms.score, ms.ci.lo, ms.ci.hi);
      os << buf;
    }
    std::snprintf(buf, sizeof buf,
                  "\nphi contributions (sum %.6g over %zu patterns):\n\n",
                  cand.phi_sum, r.n_patterns);
    os << buf;
    os << "| pattern | phi | 95% CI | fails | disagreeing cells |\n";
    os << "|---|---|---|---|---|\n";
    for (const auto& pb : cand.patterns) {
      std::size_t disagree = 0;
      for (const auto& cell : pb.cells) disagree += cell.agrees ? 0U : 1U;
      std::snprintf(buf, sizeof buf,
                    "| v%zu | %.6g | [%.6g, %.6g] | %zu | %zu |\n",
                    pb.pattern, pb.phi, pb.phi_ci.lo, pb.phi_ci.hi,
                    pb.observed_fails, disagree);
      os << buf;
    }
    // Per-cell detail only where the dictionary and the chip disagree -
    // the cells that cost this candidate score.
    bool any = false;
    for (const auto& pb : cand.patterns) {
      for (const auto& cell : pb.cells) {
        if (cell.agrees) continue;
        if (!any) {
          os << "\ndisagreements (dictionary vs observed):\n\n"
             << "| pattern | output | observed | M | E | S | matched "
                "(95% CI) |\n|---|---|---|---|---|---|---|\n";
          any = true;
        }
        std::snprintf(buf, sizeof buf,
                      "| v%zu | %zu | %s | %.3f | %.3f | %.3f | %.3f "
                      "[%.3f, %.3f] |\n",
                      pb.pattern, cell.output,
                      cell.observed_fail ? "FAIL" : "pass", cell.m, cell.e,
                      cell.s, cell.matched, cell.matched_ci.lo,
                      cell.matched_ci.hi);
        os << buf;
      }
    }
  }
  return os.str();
}

}  // namespace sddd::introspect
