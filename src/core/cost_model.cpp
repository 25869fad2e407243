#include "core/cost_model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace dpg {

namespace {

/// A rate the model can price with: finite and >= 0 (false for NaN).
bool valid_rate(double rate) noexcept {
  return std::isfinite(rate) && rate >= 0.0;
}

}  // namespace

void CostModel::validate() const {
  require(valid_rate(mu), "CostModel: mu must be finite and non-negative");
  require(valid_rate(lambda),
          "CostModel: lambda must be finite and non-negative");
  require(alpha > 0.0 && alpha <= 1.0, "CostModel: alpha must be in (0, 1]");
}

CostModel CostModel::from_rho(double rho, double budget, double alpha) {
  require(rho > 0.0, "from_rho: rho must be positive");
  require(budget > 0.0, "from_rho: budget must be positive");
  // λ/μ = rho and λ + μ = budget  =>  μ = budget / (1 + rho).
  CostModel model;
  model.mu = budget / (1.0 + rho);
  model.lambda = budget - model.mu;
  model.alpha = alpha;
  model.validate();
  return model;
}

HeterogeneousCostModel::HeterogeneousCostModel(std::size_t server_count,
                                               double mu, double lambda)
    : mu_(server_count, mu), lambda_(server_count * server_count, lambda) {
  require(server_count > 0, "HeterogeneousCostModel: need >= 1 server");
  require(valid_rate(mu) && valid_rate(lambda),
          "HeterogeneousCostModel: rates must be finite and non-negative");
  for (std::size_t s = 0; s < server_count; ++s) {
    lambda_[s * server_count + s] = 0.0;  // no self-transfer cost
  }
}

void HeterogeneousCostModel::set_mu(ServerId server, double mu) {
  require(server < mu_.size(), "set_mu: server out of range");
  require(valid_rate(mu), "set_mu: rate must be finite and non-negative");
  mu_[server] = mu;
}

void HeterogeneousCostModel::set_lambda(ServerId from, ServerId to,
                                        double lambda) {
  require(from < mu_.size() && to < mu_.size(),
          "set_lambda: server out of range");
  require(valid_rate(lambda),
          "set_lambda: rate must be finite and non-negative");
  lambda_[from * mu_.size() + to] = lambda;
  lambda_[to * mu_.size() + from] = lambda;  // symmetric network
}

double HeterogeneousCostModel::mu(ServerId server) const {
  require(server < mu_.size(), "mu: server out of range");
  return mu_[server];
}

double HeterogeneousCostModel::lambda(ServerId from, ServerId to) const {
  require(from < mu_.size() && to < mu_.size(), "lambda: server out of range");
  return lambda_[from * mu_.size() + to];
}

}  // namespace dpg
