// Ablation of DP_Greedy's design choices (DESIGN.md §2.3):
//  (a) the θ threshold — packing everything vs selective packing,
//  (b) the package-fetch option (2αλ) in the Phase-2 greedy,
//  (c) the greedy singleton service vs serving singles with the DP too
//      (i.e. is the "greedy" half of DP_Greedy costing much?).
#include <algorithm>
#include <cstdio>

#include "harness_common.hpp"
#include "harness_solvers.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace dpg;

namespace {

/// Runs visit(server, time, with_partner) over `item`'s requests in time
/// order, from one merge of the two items' events.
template <typename Visit>
void walk_item(const RequestSequence& trace, ItemId item, ItemId partner,
               Visit&& visit) {
  const ItemId pair[2] = {item, partner};
  trace.merge_item_lists(pair, [&](std::span<const std::size_t> holders,
                                   ServerId server, Time time) {
    if (holders.front() == 0) visit(server, time, holders.size() == 2);
  });
}

/// Variant (b): DP_Greedy without the package-fetch option — singles pick
/// min(cache, transfer) only.  Recomputed here from the service records by
/// re-pricing each decision without the 2αλ choice.
double without_package_fetch(const RequestSequence& trace,
                             const CostModel& model, double theta) {
  DpGreedyOptions options;
  options.theta = theta;
  const DpGreedyResult dpg = solve_dp_greedy(trace, model, options);
  double total = 0.0;
  for (const PackageReport& report : dpg.packages) {
    total += report.package_cost;
    // Re-serve the singles with only cache/transfer options.
    for (const ItemId item : {report.pair.a, report.pair.b}) {
      const ItemId partner = item == report.pair.a ? report.pair.b
                                                   : report.pair.a;
      Time prev = 0.0;
      std::vector<Time> last_on(trace.server_count(), -1.0);
      last_on[kOriginServer] = 0.0;
      walk_item(trace, item, partner,
                [&](ServerId server, Time time, bool with_partner) {
                  if (!with_partner) {
                    Cost cache = kInfiniteCost;
                    if (last_on[server] >= 0.0) {
                      cache = model.mu * (time - last_on[server]);
                    }
                    const Cost transfer =
                        model.mu * (time - prev) + model.lambda;
                    total += std::min(cache, transfer);
                  }
                  prev = time;
                  last_on[server] = time;
                });
    }
  }
  for (const SingleItemReport& report : dpg.singles) total += report.cost;
  return total;
}

/// Variant (c): serve the singleton requests of each packed pair with the
/// optimal DP over the item's singleton flow (package requests excluded
/// from that flow but package fetches unavailable).
double singles_via_dp(const RequestSequence& trace, const CostModel& model,
                      double theta) {
  DpGreedyOptions options;
  options.theta = theta;
  const DpGreedyResult dpg = solve_dp_greedy(trace, model, options);
  double total = 0.0;
  for (const PackageReport& report : dpg.packages) {
    total += report.package_cost;
    for (const ItemId item : {report.pair.a, report.pair.b}) {
      const ItemId partner = item == report.pair.a ? report.pair.b
                                                   : report.pair.a;
      Flow singles;
      walk_item(trace, item, partner,
                [&](ServerId server, Time time, bool with_partner) {
                  if (!with_partner) singles.points.push_back({server, time});
                });
      total +=
          solve_optimal_offline(singles, model, trace.server_count()).raw_cost;
    }
  }
  for (const SingleItemReport& report : dpg.singles) total += report.cost;
  return total;
}

}  // namespace

int main() {
  std::printf("DP_Greedy design ablations\n\n");
  const RequestSequence trace = harness::evaluation_trace();

  for (const double alpha : {0.4, 0.8}) {
    CostModel model;
    model.mu = 1.0;
    model.lambda = 2.0;
    model.alpha = alpha;

    std::printf("--- alpha = %.1f ---\n", alpha);
    TextTable table({"variant", "total cost", "vs DP_Greedy"});
    DpGreedyOptions base;
    base.theta = 0.3;
    const double reference = solve_dp_greedy(trace, model, base).total_cost;
    const auto rel = [&](double v) {
      return format_fixed(100.0 * (v / reference - 1.0), 2) + "%";
    };

    table.add_row({"DP_Greedy (theta=0.3)", format_fixed(reference, 1),
                   "+0.00%"});
    DpGreedyOptions pack_all;
    pack_all.theta = 0.0;
    const double theta0 = solve_dp_greedy(trace, model, pack_all).total_cost;
    table.add_row({"(a) theta=0 (pack any co-occurrence)",
                   format_fixed(theta0, 1), rel(theta0)});
    DpGreedyOptions pack_none;
    pack_none.theta = 1.0;
    const double theta1 = solve_dp_greedy(trace, model, pack_none).total_cost;
    table.add_row({"(a) theta=1 (never pack = Optimal)",
                   format_fixed(theta1, 1), rel(theta1)});
    const double no_fetch = without_package_fetch(trace, model, 0.3);
    table.add_row({"(b) no 2*alpha*lambda package-fetch option",
                   format_fixed(no_fetch, 1), rel(no_fetch)});
    const double dp_singles = singles_via_dp(trace, model, 0.3);
    table.add_row({"(c) singles served by DP instead of greedy",
                   format_fixed(dp_singles, 1), rel(dp_singles)});
    const double package_served =
        solve_package_served(trace, model, 0.3).total_cost;
    table.add_row({"Package_Served (always ship the pair)",
                   format_fixed(package_served, 1), rel(package_served)});
    std::printf("%s\n", table.render().c_str());
  }
  std::printf(
      "reading: (b) quantifies Observation 2's fetch option; (c) bounds how\n"
      "much the greedy half of Phase 2 leaves on the table versus a DP over\n"
      "the singleton flow (which ignores package copies, so it can lose on\n"
      "strongly packed traces).\n");
  return 0;
}
