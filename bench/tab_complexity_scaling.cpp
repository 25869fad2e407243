// Section V-B — the O(mn^2) time / O(mn) space claims, measured.
//
// We time the literal Section-V implementation (naive inner scan, the
// paper's O(mn^2)) and the optimized window-min variant across n, fit the
// time-vs-n power law, and account the index structure's footprint: the
// Q_j lists and p(i) in O(n + m), inside the paper's O(mn) bound (the
// m-wide pLast snapshots are not kept — no solver reads them).
#include <cstdio>
#include <vector>

#include "core/request_index.hpp"
#include "harness_solvers.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace dpg;

namespace {

Flow flow_of_first_item(const RequestSequence& seq) {
  return make_item_flow(seq, 0);
}

double time_solver(const Flow& flow, const CostModel& model, std::size_t m,
                   bool fast, int repeats) {
  OptimalOfflineOptions options;
  options.fast_range_min = fast;
  Stopwatch watch;
  for (int r = 0; r < repeats; ++r) {
    const SolveResult result =
        solve_optimal_offline(flow, model, m, options, /*build_schedule=*/false);
    (void)result;
  }
  return watch.elapsed_seconds() / repeats;
}

}  // namespace

int main() {
  std::printf("Section V-B: time O(mn^2), space O(mn) — measured scaling\n\n");
  const CostModel model{1.0, 1.0, 0.8};
  const std::size_t m = 16;

  // Adversarial request pattern for the naive scan: frequent same-server
  // revisits keep the D-window wide.
  TextTable table({"n", "naive (ms)", "window-min (ms)", "index bytes"});
  std::vector<double> ns, naive_times, fast_times;
  for (const std::size_t n : {500u, 1000u, 2000u, 4000u, 8000u}) {
    UniformTraceConfig config;
    config.server_count = m;
    config.item_count = 1;
    config.request_count = n;
    Rng rng(7);
    const RequestSequence seq = generate_uniform_trace(config, rng);
    const Flow flow = flow_of_first_item(seq);

    const int repeats = n <= 1000 ? 20 : 5;
    const double naive = time_solver(flow, model, m, false, repeats);
    const double fast = time_solver(flow, model, m, true, repeats);
    // The Section-V structures as kept: per node its time, server and Q_j
    // links (q_prev is p(i)), plus one Q_j tail per server.
    const std::size_t index_bytes =
        (flow.size() + 1) *
            (sizeof(Time) + sizeof(ServerId) + 2 * sizeof(std::int32_t)) +
        m * sizeof(std::int32_t);
    ns.push_back(static_cast<double>(n));
    naive_times.push_back(naive);
    fast_times.push_back(fast);
    table.add_row({std::to_string(n), format_fixed(naive * 1e3, 3),
                   format_fixed(fast * 1e3, 3), std::to_string(index_bytes)});
  }
  std::printf("%s\n", table.render().c_str());

  const PowerFit naive_fit = fit_power_law(ns, naive_times);
  const PowerFit fast_fit = fit_power_law(ns, fast_times);
  std::printf("naive D-scan   : time ~ n^%s (R^2 %s) on uniform traces\n",
              format_fixed(naive_fit.exponent, 2).c_str(),
              format_fixed(naive_fit.r_squared, 3).c_str());
  std::printf("window-min     : time ~ n^%s (R^2 %s) — near-linear\n",
              format_fixed(fast_fit.exponent, 2).c_str(),
              format_fixed(fast_fit.r_squared, 3).c_str());
  std::printf("space          : the index is exactly (n+1)*20 + 4m bytes "
              "= O(n + m), within the paper's O(mn)\n\n");

  // Worst case: the round-robin pattern keeps every D window m nodes wide,
  // so the naive scan does Θ(mn) = Θ(n²/rounds) work — the paper's O(mn²)
  // term made visible.
  std::printf("adversarial round-robin pattern (m = n/4, the O(mn^2) regime):\n");
  TextTable adversarial({"n", "naive (ms)", "window-min (ms)"});
  std::vector<double> adv_ns, adv_naive;
  for (const std::size_t n : {1024u, 2048u, 4096u, 8192u}) {
    AdversarialWindowConfig config;
    config.server_count = n / 4;
    config.rounds = 4;
    const RequestSequence seq = generate_adversarial_window_trace(config);
    const Flow flow = flow_of_first_item(seq);
    const int repeats = n <= 2048 ? 10 : 3;
    const double naive = time_solver(flow, model, config.server_count, false,
                                     repeats);
    const double fast = time_solver(flow, model, config.server_count, true,
                                    repeats);
    adv_ns.push_back(static_cast<double>(n));
    adv_naive.push_back(naive);
    adversarial.add_row({std::to_string(n), format_fixed(naive * 1e3, 3),
                         format_fixed(fast * 1e3, 3)});
  }
  std::printf("%s\n", adversarial.render().c_str());
  const PowerFit adv_fit = fit_power_law(adv_ns, adv_naive);
  std::printf("naive D-scan on the adversarial pattern: time ~ n^%s "
              "(R^2 %s) — the quadratic worst case\n",
              format_fixed(adv_fit.exponent, 2).c_str(),
              format_fixed(adv_fit.r_squared, 3).c_str());
  return 0;
}
