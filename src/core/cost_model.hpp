// The homogeneous cost model of the paper (Section III-B, Table II).
//
// Caching costs `mu` per item per time unit on every server; transferring an
// item between any pair of servers costs `lambda`.  Packing g >= 2 correlated
// items discounts both rates by the discount factor `alpha`: a g-item package
// caches at `g*alpha*mu` and transfers at `g*alpha*lambda` (Table II).
// Replication, deletion and packing themselves are free (folded into
// `mu`/`lambda`, Section III-C).
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace dpg {

struct CostModel {
  /// Cache cost per item per time unit (μ). Must be finite and >= 0.
  double mu = 1.0;
  /// Transfer cost per item per hop (λ). Must be finite and >= 0.
  double lambda = 1.0;
  /// Package discount factor (α) in (0, 1].
  double alpha = 0.8;

  /// Validates parameter ranges; throws InvalidArgument on violation.
  void validate() const;

  /// Cost-rate multiplier of a flow of `group_size` items served together:
  /// 1 for an individual item, `group_size * alpha` for a package (Table II).
  [[nodiscard]] double flow_multiplier(std::size_t group_size) const noexcept {
    return group_size <= 1 ? 1.0 : alpha * static_cast<double>(group_size);
  }

  /// Cost of caching one individual item for `duration` time units.
  [[nodiscard]] Cost cache_cost(Time duration) const noexcept {
    return mu * duration;
  }

  /// Cost of one individual-item transfer.
  [[nodiscard]] Cost transfer_cost() const noexcept { return lambda; }

  /// Cost of serving a request for a single item of a package by shipping
  /// the (always available) package: the constant 2αλ of Observation 2.
  [[nodiscard]] Cost package_fetch_cost() const noexcept {
    return 2.0 * alpha * lambda;
  }

  /// The theoretical approximation guarantee of DP_Greedy (Theorem 1).
  [[nodiscard]] double approximation_bound() const noexcept {
    return 2.0 / alpha;
  }

  /// The transfer/cache rate ratio ρ = λ/μ swept in Fig. 12.
  [[nodiscard]] double rho() const noexcept { return lambda / mu; }

  /// Model with the same ρ but rates rescaled so λ + μ = `budget`
  /// (the normalization used for Fig. 12, where λ + μ = 6).
  [[nodiscard]] static CostModel from_rho(double rho, double budget,
                                          double alpha);
};

/// Per-server cache rates and per-pair transfer rates: the heterogeneous
/// generalization the paper classifies as NP-hard (Section III-C).  Only the
/// greedy heuristics accept it; it exists so the experiment harnesses can
/// probe robustness of the homogeneous results.
class HeterogeneousCostModel {
 public:
  /// Uniform initialization (matches CostModel with the same rates).
  HeterogeneousCostModel(std::size_t server_count, double mu, double lambda);

  [[nodiscard]] std::size_t server_count() const noexcept { return mu_.size(); }

  void set_mu(ServerId server, double mu);
  void set_lambda(ServerId from, ServerId to, double lambda);

  [[nodiscard]] double mu(ServerId server) const;
  [[nodiscard]] double lambda(ServerId from, ServerId to) const;

 private:
  std::vector<double> mu_;
  std::vector<double> lambda_;  // row-major server_count x server_count
};

}  // namespace dpg
