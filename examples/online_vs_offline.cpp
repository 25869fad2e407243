// Online vs offline — the paper's reference [6] contrasts the optimal
// offline algorithm with a constant-competitive online policy.  This
// example measures the empirical competitive ratio of the break-even
// (rent-or-buy) online rule against the offline DP across a taxi trace,
// plus an ablation of the holding-horizon factor — all through the
// registry: both policies run as solvers, and the per-item numbers come
// from the reports' plans (one plan per item flow).
//
//   $ online_vs_offline --duration 300 --lambda 2
#include <cstdio>

#include "dpgreedy.hpp"

using namespace dpg;

namespace {

/// Per-item costs of one registry run: plans arrive in ascending item
/// order, one per item, so the slot index is the ItemId.
std::vector<Cost> per_item_costs(const RunReport& report,
                                 const CostModel& model) {
  std::vector<Cost> costs;
  costs.reserve(report.plans.size());
  for (const FlowPlan& plan : report.plans) {
    costs.push_back(plan.schedule.cost(model));
  }
  return costs;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("online_vs_offline",
                 "break-even online caching vs the offline optimum");
  const std::size_t* seed = args.add_size("seed", "RNG seed", 11);
  const double* duration = args.add_double("duration", "simulated hours", 300.0);
  const double* mu = args.add_double("mu", "cache cost μ", 1.0);
  const double* lambda = args.add_double("lambda", "transfer cost λ", 2.0);
  args.parse(argc, argv);

  MobilityConfig mobility;
  mobility.duration = *duration;
  Rng rng(*seed);
  const RequestSequence trace = simulate_mobility(mobility, rng);

  CostModel model;
  model.mu = *mu;
  model.lambda = *lambda;
  model.alpha = 0.8;

  const SolverRegistry& registry = builtin_registry();
  const RunReport offline_report =
      registry.run("optimal_baseline", trace, model, SolverConfig{});
  const std::vector<Cost> offline = per_item_costs(offline_report, model);

  std::printf("== per-item competitive ratio (hold factor 1.0) ==\n");
  const RunReport online_report =
      registry.run("online_break_even", trace, model, SolverConfig{});
  TextTable table({"item", "requests", "offline DP", "online", "ratio"});
  std::vector<double> ratios;
  for (std::size_t item = 0; item < online_report.plans.size(); ++item) {
    const FlowPlan& plan = online_report.plans[item];
    if (plan.flow.empty()) continue;
    const Cost online = plan.schedule.cost(model);
    const double ratio = offline[item] > 0.0 ? online / offline[item] : 1.0;
    ratios.push_back(ratio);
    table.add_row({"d" + std::to_string(item), std::to_string(plan.flow.size()),
                   format_fixed(offline[item], 1), format_fixed(online, 1),
                   format_fixed(ratio, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  const Summary summary = summarize(ratios);
  std::printf("mean ratio %.3f, worst %.3f "
              "(reference [6] reports a 3-competitive online algorithm)\n\n",
              summary.mean, summary.max);

  std::printf("== holding-horizon ablation (mean ratio across items) ==\n");
  TextTable ablation({"hold factor", "mean ratio", "worst ratio"});
  for (const double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    SolverConfig config;
    config.hold_factor = factor;
    const RunReport swept =
        registry.run("online_break_even", trace, model, config);
    std::vector<double> r;
    for (std::size_t item = 0; item < swept.plans.size(); ++item) {
      if (swept.plans[item].flow.empty()) continue;
      if (offline[item] > 0.0) {
        r.push_back(swept.plans[item].schedule.cost(model) / offline[item]);
      }
    }
    const Summary s = summarize(r);
    ablation.add_row({format_fixed(factor, 2), format_fixed(s.mean, 3),
                      format_fixed(s.max, 3)});
  }
  std::printf("%s", ablation.render().c_str());
  std::printf("\nfactor 1.0 is the classical rent-or-buy break-even point "
              "(hold λ/μ after the last use).\n");

  // Whole-trace view through the engine: the same policies as registry
  // solvers, plus the chain floor.
  std::printf("\n== whole-trace comparison (registry) ==\n%s",
              render_comparison(
                  run_solvers({"optimal_baseline", "online_break_even",
                               "chain"},
                              trace, model))
                  .c_str());
  return 0;
}
