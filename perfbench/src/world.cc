#include "world.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "atpg/diag_patterns.h"
#include "diagnosis/signature_matrix.h"
#include "netlist/iscas_catalog.h"
#include "runtime/parallel_for.h"
#include "stats/rng.h"
#include "stats/sample_vector.h"

namespace perfbench {

using namespace sddd;

netlist::Netlist make_circuit() {
  const netlist::IscasProfile* profile = netlist::find_profile("s9234");
  if (profile == nullptr) throw std::runtime_error("no s9234 profile");
  return netlist::make_standin(*profile, 0.35, 2003);
}

eval::ExperimentConfig table1_config(std::size_t n_chips) {
  eval::ExperimentConfig cfg;
  cfg.mc_samples = 120;
  cfg.n_chips = n_chips;
  cfg.seed = kWorldSeed;
  return cfg;
}

World::World(const netlist::Netlist& nl_in, const eval::ExperimentConfig& cfg,
             SpanRecorder& spans)
    : nl(nl_in),
      config(cfg),
      lev(nl_in),
      lib(cfg.library),
      model(nl_in, lib),
      logic_sim(nl_in, lev),
      instance_samples(cfg.instance_samples != 0 ? cfg.instance_samples
                                                 : cfg.mc_samples),
      dict_field(model, cfg.mc_samples, cfg.global_weight,
                 cfg.seed ^ 0xd1c7ULL),
      inst_field(model, instance_samples, cfg.global_weight,
                 cfg.seed ^ 0xc41bULL),
      dict_sim(dict_field, lev),
      inst_sim(inst_field, lev),
      size_model(model.mean_cell_delay(), cfg.defect_mean_lo,
                 cfg.defect_mean_hi, cfg.defect_three_sigma,
                 cfg.seed ^ 0x5e1fULL),
      size_rv(stats::RandomVariable::Normal(size_model.marginal_mean(),
                                            size_model.marginal_mean() / 6.0)),
      location_model(defect::SegmentDefectModel::uniform_single(nl_in,
                                                                size_rv)),
      injector(location_model, size_model) {
  const double t0 = now_s();
  {
    const SpanRecorder::Scope cal(spans, "eval.calibration", 0);
    stats::Rng cal_rng(config.seed, 0xca1bULL);
    std::vector<double> site_delays;
    for (std::size_t s = 0; s < config.calibration_sites; ++s) {
      const auto site = static_cast<netlist::ArcId>(
          cal_rng.below(static_cast<std::uint32_t>(nl.arc_count())));
      std::vector<logicsim::PatternPair> patterns;
      {
        const SpanRecorder::Scope span(spans, "atpg.generate", s);
        patterns = atpg::generate_diagnostic_patterns(
            model, lev, site, config.pattern_config, cal_rng);
      }
      double d = 0.0;
      {
        const SpanRecorder::Scope span(spans, "atpg.gate", s);
        d = atpg::site_best_nominal_delay(model, lev, patterns, site);
      }
      if (d > 0.0) site_delays.push_back(d);
    }
    if (site_delays.empty()) {
      throw std::runtime_error("calibration: no testable site");
    }
    clk = stats::SampleVector(std::move(site_delays))
              .quantile(config.clk_site_quantile);
  }
  calibration_s = now_s() - t0;
  detect_lo = clk - config.detectable_lambda_lo * size_model.marginal_mean();
  detect_hi = clk + config.detectable_lambda_hi * size_model.marginal_mean();
}

std::vector<logicsim::PatternPair> store_patterns(const World& W,
                                                 SpanRecorder& spans) {
  stats::Rng rng(W.config.seed, 0x9a77ULL);
  std::vector<logicsim::PatternPair> out;
  std::set<std::string> seen;
  for (std::size_t s = 0; s < 6 && out.size() < 24; ++s) {
    const auto site = static_cast<netlist::ArcId>(
        rng.below(static_cast<std::uint32_t>(W.nl.arc_count())));
    std::vector<logicsim::PatternPair> site_patterns;
    {
      const SpanRecorder::Scope span(spans, "atpg.generate", s);
      site_patterns = atpg::generate_diagnostic_patterns(
          W.model, W.lev, site, W.config.pattern_config, rng);
    }
    for (auto& p : site_patterns) {
      std::string key;
      for (const bool b : p.v1) key.push_back(b ? '1' : '0');
      for (const bool b : p.v2) key.push_back(b ? '1' : '0');
      if (!seen.insert(std::move(key)).second) continue;
      out.push_back(std::move(p));
      if (out.size() >= 24) break;
    }
  }
  return out;
}

bool defect_contributes(const diagnosis::BehaviorMatrix& B,
                        const diagnosis::BehaviorMatrix& B0) {
  for (std::size_t i = 0; i < B.output_count(); ++i) {
    for (std::size_t j = 0; j < B.pattern_count(); ++j) {
      if (B.at(i, j) && !B0.at(i, j)) return true;
    }
  }
  return false;
}

std::vector<DrawnChip> draw_chips(
    const World& W, std::span<const logicsim::PatternPair> patterns,
    std::uint64_t seed, std::size_t n, SpanRecorder& spans) {
  W.inst_sim.prewarm();
  // The defect-free behavior depends only on the instance, so each of the
  // instance world's chips is observed once, up front.
  std::vector<diagnosis::BehaviorMatrix> good(
      W.instance_samples, diagnosis::BehaviorMatrix(0, 0));
  runtime::parallel_for(good.size(), [&](std::size_t k) {
    const SpanRecorder::Scope span(spans, "timing.observe", k);
    good[k] = diagnosis::observe_behavior(W.inst_sim, W.logic_sim, W.lev,
                                          patterns, k, std::nullopt, W.clk);
  });
  // A defect off every active path of every pattern cannot move an output
  // arrival, so its chip fails exactly where the defect-free one does and
  // is redrawn without observing it.
  std::vector<char> active(W.nl.arc_count(), 0);
  {
    const diagnosis::SignatureCache probe(W.dict_sim, W.logic_sim, W.lev,
                                          W.size_model, W.clk, true);
    for (const logicsim::PatternPair& p : patterns) {
      const std::vector<char>& on = probe.collapse_slice(p).active;
      for (std::size_t a = 0; a < active.size(); ++a) active[a] |= on[a];
    }
  }
  std::vector<DrawnChip> chips(n);
  runtime::parallel_for(n, [&](std::size_t t) {
    DrawnChip& out = chips[t];
    stats::Rng rng = stats::Rng(seed, 0xe4a1ULL).split(t + 1);
    for (std::size_t attempt = 0; attempt < 120 && !out.failing; ++attempt) {
      ++out.draws;
      {
        const SpanRecorder::Scope span(spans, "defect.draw", t);
        out.chip = W.injector.draw(W.instance_samples, rng);
      }
      if (active[out.chip.defect_arc] == 0) continue;
      const SpanRecorder::Scope span(spans, "timing.observe", t);
      out.B = diagnosis::observe_behavior(
          W.inst_sim, W.logic_sim, W.lev, patterns, out.chip.sample_index,
          std::make_pair(out.chip.defect_arc, out.chip.defect_size), W.clk);
      out.failing = defect_contributes(out.B, good[out.chip.sample_index]);
    }
  });
  return chips;
}

}  // namespace perfbench
