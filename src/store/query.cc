#include "store/query.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "diagnosis/error_fn.h"
#include "diagnosis/score_kernel.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "runtime/cancel.h"

namespace sddd::store {

using diagnosis::Method;
using netlist::ArcId;

namespace {

/// The engine's column source: the stored E (or S) columns, and the
/// pattern's shared column (M, or zero under S) for every suspect whose E
/// column equals M - score_suspects() evaluates one phi for all of those.
class StoreColumns final : public diagnosis::ColumnSource {
 public:
  StoreColumns(const DictionaryStore& st, bool match_on_total_probability)
      : st_(&st), match_e_(match_on_total_probability) {}

  const double* columns(std::size_t j, std::span<const ArcId> suspects,
                        std::vector<const double*>& out) const override {
    out.resize(suspects.size());
    for (std::size_t s = 0; s < suspects.size(); ++s) {
      out[s] = st_->column(j, suspects[s], match_e_);
    }
    return st_->shared_column(j, match_e_);
  }

 private:
  const DictionaryStore* st_;
  bool match_e_;
};

}  // namespace

std::vector<ArcId> StoreQueryEngine::extract_suspects(
    const diagnosis::BehaviorMatrix& B) const {
  const DictionaryStore& st = *store_;
  std::vector<const std::uint64_t*> rows;
  for (const std::size_t j : B.failing_patterns()) {
    for (std::size_t i = 0; i < st.n_outputs(); ++i) {
      if (B.at(i, j)) rows.push_back(st.cone_row(j, i));
    }
  }
  return diagnosis::suspects_from_cone_rows(rows, st.n_arcs(),
                                            st.max_suspects());
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

bool parse_batch_query(const obs::JsonValue& req, const DictionaryStore& store,
                       std::size_t default_top_k, BatchQuery* out,
                       std::string* error) {
  const std::string match = req.get_string("match", "e");
  if (match != "e" && match != "s") {
    *error = "match must be \"e\" or \"s\"";
    return false;
  }
  out->match_e = match == "e";
  out->top_k = static_cast<std::size_t>(std::max(
      0.0, req.get_number("top", static_cast<double>(default_top_k))));
  const obs::JsonValue* chips = req.get("chips");
  if (chips == nullptr || !chips->is_array()) {
    *error = "missing \"chips\" array";
    return false;
  }
  out->chips.clear();
  out->chips.reserve(chips->array.size());
  for (std::size_t c = 0; c < chips->array.size(); ++c) {
    const obs::JsonValue& chip = chips->array[c];
    ChipQuery q;
    q.id = chip.get_string("id", std::to_string(c));
    const obs::JsonValue* rows_json = chip.get("b");
    if (rows_json == nullptr || !rows_json->is_array()) {
      *error = "chip " + q.id + ": missing \"b\" rows";
      return false;
    }
    std::vector<std::string> rows;
    rows.reserve(rows_json->array.size());
    for (const obs::JsonValue& row : rows_json->array) {
      if (!row.is_string()) {
        *error = "chip " + q.id + ": \"b\" rows must be strings";
        return false;
      }
      rows.push_back(row.string);
    }
    try {
      q.B = behavior_from_rows(rows, store.n_outputs(), store.n_patterns());
    } catch (const ParseError& e) {
      *error = e.what();
      return false;
    }
    out->chips.push_back(std::move(q));
  }
  return true;
}

std::string diagnose_batch_json(const StoreQueryEngine& engine,
                                std::span<const ChipQuery> chips,
                                bool match_on_total_probability,
                                std::size_t top_k) {
  static constexpr Method kMethods[] = {Method::kSimI, Method::kSimII,
                                        Method::kSimIII, Method::kRev};
  const DictionaryStore& st = engine.store();
  // A response repeats a few hundred distinct phi doubles tens of
  // thousands of times: spell each one once, keyed by its bits.
  std::unordered_map<std::uint64_t, std::string> phi_text;
  const auto spell_phi = [&phi_text](double v) -> const std::string& {
    const auto [it, fresh] =
        phi_text.try_emplace(std::bit_cast<std::uint64_t>(v));
    if (fresh) it->second = obs::json_double(v);
    return it->second;
  };
  std::string out;
  out.append("{\"ok\":true,\"op\":\"diagnose\",\"run_id\":");
  obs::append_json_string(out, st.run_id());
  out.append(",\"circuit\":");
  obs::append_json_string(out, st.circuit());
  out.append(",\"match\":\"").push_back(match_on_total_probability ? 'e' : 's');
  out.append("\",\"mc_samples\":").append(std::to_string(st.mc_samples()));
  out.append(",\"n_patterns\":").append(std::to_string(st.n_patterns()));
  out.append(",\"chips\":[");
  std::vector<std::size_t> reported;  // suspect positions
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
    reported.clear();
    for (std::size_t m = 0; m < std::size(kMethods); ++m) {
      if (m > 0) out.push_back(',');
      obs::append_json_string(out, diagnosis::method_name(kMethods[m]));
      out.append(":[");
      const std::vector<std::size_t> best = result.top(kMethods[m], top_k);
      for (std::size_t r = 0; r < best.size(); ++r) {
        if (r > 0) out.push_back(',');
        const std::size_t s = best[r];
        reported.push_back(s);
        // The ranking key is reported next to the probability-domain
        // score so byte-compared responses also pin the sort surrogate.
        out.append("{\"arc\":").append(std::to_string(result.suspects[s]));
        out.append(",\"score\":")
            .append(obs::json_double(result.scores[m][s]));
        out.append(",\"key\":").append(obs::json_double(result.keys[m][s]));
        out.push_back('}');
      }
      out.push_back(']');
    }
    // Every reported arc once, ascending by arc id.
    std::sort(reported.begin(), reported.end(),
              [&](std::size_t a, std::size_t b) {
                return result.suspects[a] < result.suspects[b];
              });
    reported.erase(std::unique(reported.begin(), reported.end()),
                   reported.end());
    out.append("},\"phi\":{");
    bool first_arc = true;
    for (const std::size_t s : reported) {
      if (!first_arc) out.push_back(',');
      first_arc = false;
      obs::append_json_string(out, std::to_string(result.suspects[s]));
      out.append(":[");
      for (std::size_t j = 0; j < result.phi[s].size(); ++j) {
        if (j > 0) out.push_back(',');
        out.append(spell_phi(result.phi[s][j]));
      }
      out.append("]");
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

}  // namespace sddd::store
