#include "store/query.h"

#include <algorithm>
#include <set>

#include "diagnosis/error_fn.h"
#include "diagnosis/score_kernel.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "runtime/cancel.h"

namespace sddd::store {

using diagnosis::Method;
using netlist::ArcId;

namespace {

/// The engine's column source: the stored E (or S) section, one column
/// per suspect (the store keeps no shared baseline).
class StoreColumns final : public diagnosis::ColumnSource {
 public:
  StoreColumns(const DictionaryStore& st, bool match_on_total_probability)
      : st_(&st), match_e_(match_on_total_probability) {}

  const double* columns(std::size_t j, std::span<const ArcId> suspects,
                        std::vector<const double*>& out) const override {
    out.resize(suspects.size());
    for (std::size_t s = 0; s < suspects.size(); ++s) {
      out[s] = match_e_ ? st_->e_column(j, suspects[s])
                        : st_->s_column(j, suspects[s]);
    }
    return nullptr;
  }

 private:
  const DictionaryStore* st_;
  bool match_e_;
};

}  // namespace

std::vector<ArcId> StoreQueryEngine::extract_suspects(
    const diagnosis::BehaviorMatrix& B) const {
  const DictionaryStore& st = *store_;
  const std::size_t n_arcs = st.n_arcs();
  std::vector<std::uint32_t> support(n_arcs, 0);
  for (const std::size_t j : B.failing_patterns()) {
    for (std::size_t i = 0; i < st.n_outputs(); ++i) {
      if (!B.at(i, j)) continue;
      const std::uint64_t* row = st.cone_row(j, i);
      for (ArcId a = 0; a < n_arcs; ++a) {
        if ((row[a >> 6] >> (a & 63)) & 1U) ++support[a];
      }
    }
  }
  return diagnosis::select_suspects(support, st.max_suspects());
}

diagnosis::DiagnosisResult StoreQueryEngine::diagnose(
    const diagnosis::BehaviorMatrix& B, std::span<const Method> methods,
    bool match_on_total_probability, bool capture_phi) const {
  const DictionaryStore& st = *store_;
  if (B.output_count() != st.n_outputs() ||
      B.pattern_count() != st.n_patterns()) {
    throw ParseError("store query", 0, "behavior matrix is " +
                     std::to_string(B.output_count()) + "x" +
                     std::to_string(B.pattern_count()) + ", store expects " +
                     std::to_string(st.n_outputs()) + "x" +
                     std::to_string(st.n_patterns()));
  }

  diagnosis::DiagnosisResult result;
  result.methods.assign(methods.begin(), methods.end());
  result.suspects = extract_suspects(B);
  result.mc_samples = st.mc_samples();
  diagnosis::score_suspects(StoreColumns(st, match_on_total_probability), B,
                            capture_phi, result);
  return result;
}

diagnosis::BehaviorMatrix behavior_from_rows(
    const std::vector<std::string>& rows, std::size_t n_outputs,
    std::size_t n_patterns) {
  if (rows.size() != n_outputs) {
    throw ParseError("behavior", 0, std::to_string(rows.size()) +
                     " rows, store expects " + std::to_string(n_outputs) +
                     " outputs");
  }
  diagnosis::BehaviorMatrix B(n_outputs, n_patterns);
  for (std::size_t i = 0; i < n_outputs; ++i) {
    if (rows[i].size() != n_patterns) {
      throw ParseError("behavior", 0, "row " + std::to_string(i) + " has " +
                       std::to_string(rows[i].size()) +
                       " columns, store expects " +
                       std::to_string(n_patterns) + " patterns");
    }
    for (std::size_t j = 0; j < n_patterns; ++j) {
      const char c = rows[i][j];
      if (c != '0' && c != '1') {
        throw ParseError("behavior", 0, "row " + std::to_string(i) +
                         " column " + std::to_string(j) +
                         ": expected '0' or '1'");
      }
      B.set(i, j, c == '1');
    }
  }
  return B;
}

std::string diagnose_batch_json(const StoreQueryEngine& engine,
                                std::span<const ChipQuery> chips,
                                bool match_on_total_probability,
                                std::size_t top_k) {
  static constexpr Method kMethods[] = {Method::kSimI, Method::kSimII,
                                        Method::kSimIII, Method::kRev};
  const DictionaryStore& st = engine.store();
  std::string out;
  out.append("{\"ok\":true,\"op\":\"diagnose\",\"run_id\":");
  obs::append_json_string(out, st.run_id());
  out.append(",\"circuit\":");
  obs::append_json_string(out, st.circuit());
  out.append(",\"match\":\"").push_back(match_on_total_probability ? 'e' : 's');
  out.append("\",\"mc_samples\":").append(std::to_string(st.mc_samples()));
  out.append(",\"n_patterns\":").append(std::to_string(st.n_patterns()));
  out.append(",\"chips\":[");
  for (std::size_t c = 0; c < chips.size(); ++c) {
    runtime::poll_cancellation();
    if (c > 0) out.push_back(',');
    const diagnosis::DiagnosisResult result = engine.diagnose(
        chips[c].B, kMethods, match_on_total_probability,
        /*capture_phi=*/true);
    out.append("{\"id\":");
    obs::append_json_string(out, chips[c].id);
    out.append(",\"n_suspects\":")
        .append(std::to_string(result.suspects.size()));
    out.append(",\"methods\":{");
    std::set<ArcId> reported;
    for (std::size_t m = 0; m < std::size(kMethods); ++m) {
      if (m > 0) out.push_back(',');
      obs::append_json_string(out, diagnosis::method_name(kMethods[m]));
      out.append(":[");
      const auto ranked = result.ranked(kMethods[m]);
      const std::size_t limit =
          top_k == 0 ? ranked.size() : std::min(top_k, ranked.size());
      for (std::size_t r = 0; r < limit; ++r) {
        if (r > 0) out.push_back(',');
        reported.insert(ranked[r].arc);
        // The ranking key is reported next to the probability-domain
        // score so byte-compared responses also pin the sort surrogate.
        const auto s = static_cast<std::size_t>(
            std::find(result.suspects.begin(), result.suspects.end(),
                      ranked[r].arc) -
            result.suspects.begin());
        out.append("{\"arc\":").append(std::to_string(ranked[r].arc));
        out.append(",\"score\":").append(obs::json_double(ranked[r].score));
        out.append(",\"key\":").append(obs::json_double(result.keys[m][s]));
        out.push_back('}');
      }
      out.push_back(']');
    }
    out.append("},\"phi\":{");
    bool first_arc = true;
    for (const ArcId a : reported) {
      if (!first_arc) out.push_back(',');
      first_arc = false;
      const auto s = static_cast<std::size_t>(
          std::find(result.suspects.begin(), result.suspects.end(), a) -
          result.suspects.begin());
      obs::append_json_string(out, std::to_string(a));
      out.append(":[");
      for (std::size_t j = 0; j < result.phi[s].size(); ++j) {
        if (j > 0) out.push_back(',');
        out.append(obs::json_double(result.phi[s][j]));
      }
      out.append("]");
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

}  // namespace sddd::store
