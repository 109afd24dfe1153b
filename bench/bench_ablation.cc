// bench_ablation - Design-space ablations around the Table I experiment,
// quantifying the design choices DESIGN.md calls out:
//
//   A1  defect-size sweep      - accuracy vs mean defect magnitude (the
//       paper's 50-100% of a cell delay vs smaller/larger defects);
//   A2  Monte-Carlo depth      - accuracy vs dictionary sample count (the
//       paper's feasibility question (3): dictionary fidelity is the cost);
//   A3  pattern budget         - accuracy vs |TP| (Section G: diagnosis
//       needs "good" patterns; more patterns = more constraints);
//   A4  matching target        - E_crt vs the paper-literal S_crt matching
//       (identical when M_crt = 0; S degrades once baseline failures
//       appear, and Method III's probability score shows the Section I
//       "too restrictive" collapse);
//   A5  multi-defect chips     - relaxing the single-defect assumption
//       (future work #3);
//   A7  logic baseline         - traditional gross-delay dictionary vs the
//       statistical methods (Sections A-C);
//   A6  fixed-K ladder         - Alg_rev success at K = 1..12 on the base
//       configuration.
//
// One mid-size circuit (s1238-class stand-in) keeps the sweep affordable.
// Usage: bench_ablation [--chips N] [--scale S]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "eval/experiment.h"
#include "netlist/iscas_catalog.h"
#include "obs/obs.h"
#include "runtime/parallel_for.h"

using sddd::diagnosis::Method;
using sddd::eval::ExperimentConfig;
using sddd::eval::run_diagnosis_experiment;

namespace {

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.mc_samples = 200;
  config.n_chips = 16;
  config.seed = 2003;
  return config;
}

void print_header(const char* sweep) {
  std::printf("%-24s %6s | %7s %7s %8s %7s | %5s\n", sweep, "K",
              "sim-I", "sim-II", "sim-III", "rev", "|S|");
}

void print_row(const std::string& label, int k,
               const sddd::eval::ExperimentResult& r) {
  std::printf("%-24s %6d | %6.0f%% %6.0f%% %7.0f%% %6.0f%% | %5.0f\n",
              label.c_str(), k, 100 * r.success_rate(Method::kSimI, k),
              100 * r.success_rate(Method::kSimII, k),
              100 * r.success_rate(Method::kSimIII, k),
              100 * r.success_rate(Method::kRev, k), r.avg_suspects());
}

}  // namespace

int main(int argc, char** argv) {
  sddd::obs::configure_observability_from_args(&argc, argv);
  sddd::runtime::configure_threads_from_args(&argc, argv);
  double scale = 0.5;
  std::size_t chips = 16;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chips" && i + 1 < argc) chips = std::atoi(argv[++i]);
    if (arg == "--scale" && i + 1 < argc) scale = std::atof(argv[++i]);
  }

  const auto* profile = sddd::netlist::find_profile("s1238");
  const auto nl = sddd::netlist::make_standin(*profile, scale, 2003);
  std::printf("== Ablation studies on %s-class stand-in (scale %.2f) ==\n\n",
              profile->name.data(), scale);
  const int k_mid = 5;

  // --- A1: defect magnitude ---
  std::printf("A1: accuracy vs defect-size mean (fraction of a cell delay)\n");
  print_header("mean range");
  for (const auto& [lo, hi] : {std::pair{0.25, 0.5}, std::pair{0.5, 1.0},
                              std::pair{1.0, 2.0}, std::pair{2.0, 4.0}}) {
    auto config = base_config();
    config.n_chips = chips;
    config.defect_mean_lo = lo;
    config.defect_mean_hi = hi;
    const auto r = run_diagnosis_experiment(nl, config);
    char label[64];
    std::snprintf(label, sizeof(label), "[%.2f, %.2f] x cell", lo, hi);
    print_row(label, k_mid, r);
  }
  std::printf("=> larger defects are easier to localize; the paper's\n"
              "   0.5-1.0 regime sits on the hard edge.\n\n");

  // --- A2: dictionary Monte-Carlo depth ---
  std::printf("A2: accuracy vs dictionary Monte-Carlo samples\n");
  print_header("samples");
  for (const std::size_t samples : {50u, 100u, 200u, 400u}) {
    auto config = base_config();
    config.n_chips = chips;
    config.mc_samples = samples;
    config.instance_samples = 512;  // same chip population in every row
    const auto r = run_diagnosis_experiment(nl, config);
    print_row(std::to_string(samples), k_mid, r);
  }
  std::printf(
      "=> the chip population is pinned (instance_samples), so rows differ\n"
      "   only in dictionary fidelity.  At this circuit size accuracy\n"
      "   saturates quickly; wide circuits keep gaining (s5378-class: K=7\n"
      "   Alg_rev 44%% -> 59%% from 200 -> 500 samples), because phi is a\n"
      "   product over |O| noisy probabilities (feasibility question (3)).\n\n");

  // --- A3: pattern budget ---
  std::printf("A3: accuracy vs pattern budget |TP|\n");
  print_header("max patterns");
  for (const std::size_t tp : {4u, 8u, 12u, 20u}) {
    auto config = base_config();
    config.n_chips = chips;
    config.pattern_config.max_patterns = tp;
    const auto r = run_diagnosis_experiment(nl, config);
    print_row(std::to_string(tp), k_mid, r);
  }
  std::printf("=> each extra pattern adds constraints on the suspect set\n"
              "   (Section G: diagnosis needs good patterns).\n\n");

  // --- A4: matching target + Method III collapse ---
  std::printf("A4: matching E_crt (total) vs paper-literal S_crt = E - M\n");
  print_header("matching");
  {
    auto config = base_config();
    config.n_chips = chips;
    const auto r = run_diagnosis_experiment(nl, config);
    print_row("E_crt (default)", k_mid, r);
  }
  {
    auto config = base_config();
    config.n_chips = chips;
    config.match_on_signature = true;
    const auto r = run_diagnosis_experiment(nl, config);
    print_row("S_crt (paper-literal)", k_mid, r);
  }
  std::printf(
      "=> identical when M_crt = 0 (the paper's stated regime); once slow\n"
      "   chips produce baseline failures, S-matching zeroes phi on those\n"
      "   cells for every suspect and resolution drops.  (Method III's\n"
      "   probability score collapses to exactly 0 there - the paper's\n"
      "   \"too restrictive\" - but our log-domain ranking keys keep its\n"
      "   ordering usable; see EXPERIMENTS.md.)\n\n");

  // --- A5: relaxing the single-defect assumption (future work #3) ---
  std::printf("A5: multi-defect chips diagnosed under the single-defect "
              "assumption\n");
  print_header("defects per chip");
  for (const std::size_t nd : {1u, 2u, 3u}) {
    auto config = base_config();
    config.n_chips = chips;
    config.n_defects = nd;
    const auto r = run_diagnosis_experiment(nl, config);
    print_row(std::to_string(nd), k_mid, r);
  }
  std::printf(
      "=> a hit on ANY injected site counts; additional defects distort\n"
      "   the behavior the single-defect dictionary tries to explain.\n\n");

  // --- A7: traditional logic diagnosis vs statistical diagnosis ---
  std::printf("A7: gross-delay logic baseline vs statistical methods\n");
  {
    auto config = base_config();
    config.n_chips = chips;
    const auto r = run_diagnosis_experiment(nl, config);
    std::printf("  %6s | %7s %7s %7s\n", "K", "logic", "sim-II", "rev");
    for (const int k : {1, 3, 5, 8}) {
      std::printf("  %6d | %6.0f%% %6.0f%% %6.0f%%\n", k,
                  100 * r.logic_baseline_success_rate(k),
                  100 * r.success_rate(Method::kSimII, k),
                  100 * r.success_rate(Method::kRev, k));
    }
    std::printf(
        "=> the logic dictionary assumes gross delays: finite-size defects\n"
        "   violate its 0/1 predictions on short-path cells, and the\n"
        "   statistical matching pulls ahead (the paper's Sections A-C).\n\n");
  }

  // --- A6: fixed-K success ladder ---
  std::printf("A6: fixed-K success ladder (Alg_rev)\n");
  {
    auto config = base_config();
    config.n_chips = chips;
    const auto r = run_diagnosis_experiment(nl, config);
    std::printf("  fixed-K ladder (rev): ");
    for (const int k : {1, 2, 3, 5, 8, 12}) {
      std::printf("K=%d:%.0f%%  ", k,
                  100 * r.success_rate(Method::kRev, k));
    }
    std::printf("\n");
  }
  return 0;
}
