// Table II of the paper, cell by cell, plus cost-model invariants.
#include <gtest/gtest.h>

#include <limits>

#include "core/cost_model.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-12;

// Table II: individual k=1 — cache μ, transfer λ.
TEST(CostModelTableII, IndividualItemRates) {
  const CostModel model{2.0, 3.0, 0.8};
  EXPECT_NEAR(model.flow_multiplier(1), 1.0, kTol);
  EXPECT_NEAR(model.cache_cost(1.0), 2.0, kTol);          // μ per time unit
  EXPECT_NEAR(model.transfer_cost(), 3.0, kTol);          // λ per hop
}

// Table II: individual k>1 — cache kμ, transfer kλ (k independent flows).
TEST(CostModelTableII, KIndividualItemsScaleLinearly) {
  const CostModel model{2.0, 3.0, 0.8};
  const double k = 4.0;
  EXPECT_NEAR(k * model.flow_multiplier(1) * model.cache_cost(1.0), k * 2.0,
              kTol);
  EXPECT_NEAR(k * model.flow_multiplier(1) * model.transfer_cost(), k * 3.0,
              kTol);
}

// Table II: package k>1 — cache αkμ, transfer αkλ.
TEST(CostModelTableII, PackageRatesAreDiscounted) {
  const CostModel model{2.0, 3.0, 0.8};
  EXPECT_NEAR(model.flow_multiplier(2), 1.6, kTol);              // 2α
  EXPECT_NEAR(model.flow_multiplier(2) * model.cache_cost(1.0),
              0.8 * 2.0 * 2.0, kTol);                            // α·k·μ
  EXPECT_NEAR(model.flow_multiplier(2) * model.transfer_cost(),
              0.8 * 2.0 * 3.0, kTol);                            // α·k·λ
  EXPECT_NEAR(model.flow_multiplier(5), 5.0 * 0.8, kTol);
}

// Table II: package k=1 degenerates to the individual rates.
TEST(CostModelTableII, SingleItemPackageIsNotDiscounted) {
  const CostModel model{2.0, 3.0, 0.5};
  EXPECT_NEAR(model.flow_multiplier(1), 1.0, kTol);
  EXPECT_NEAR(model.flow_multiplier(0), 1.0, kTol);
}

TEST(CostModel, PackageFetchConstantIsTwoAlphaLambda) {
  const CostModel model{1.0, 2.5, 0.8};
  EXPECT_NEAR(model.package_fetch_cost(), 2.0 * 0.8 * 2.5, kTol);
}

TEST(CostModel, ApproximationBoundIsTwoOverAlpha) {
  EXPECT_NEAR((CostModel{1, 1, 0.8}).approximation_bound(), 2.5, kTol);
  EXPECT_NEAR((CostModel{1, 1, 0.5}).approximation_bound(), 4.0, kTol);
  EXPECT_NEAR((CostModel{1, 1, 1.0}).approximation_bound(), 2.0, kTol);
}

TEST(CostModel, FromRhoPreservesBudgetAndRatio) {
  for (const double rho : {0.2, 0.5, 1.0, 2.0, 5.0}) {
    const CostModel model = CostModel::from_rho(rho, 6.0, 0.8);
    EXPECT_NEAR(model.lambda + model.mu, 6.0, kTol);
    EXPECT_NEAR(model.rho(), rho, kTol);
  }
  // The paper's ρ = 2 peak case: μ = 2, λ = 4.
  const CostModel peak = CostModel::from_rho(2.0, 6.0, 0.8);
  EXPECT_NEAR(peak.mu, 2.0, kTol);
  EXPECT_NEAR(peak.lambda, 4.0, kTol);
}

TEST(CostModel, ValidateRejectsBadParameters) {
  EXPECT_THROW((CostModel{-1.0, 1.0, 0.8}).validate(), InvalidArgument);
  EXPECT_THROW((CostModel{1.0, -1.0, 0.8}).validate(), InvalidArgument);
  EXPECT_THROW((CostModel{1.0, 1.0, 0.0}).validate(), InvalidArgument);
  EXPECT_THROW((CostModel{1.0, 1.0, 1.5}).validate(), InvalidArgument);
  EXPECT_NO_THROW((CostModel{0.0, 0.0, 1.0}).validate());
}

TEST(CostModel, ValidateRejectsRatesThatAreNotFinite) {
  // An infinite or NaN rate prices every schedule at inf or NaN, which no
  // report can print as a number.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    try {
      (CostModel{bad, 1.0, 0.8}).validate();
      ADD_FAILURE() << "mu " << bad << " accepted";
    } catch (const InvalidArgument& error) {
      EXPECT_STREQ(error.what(),
                   "CostModel: mu must be finite and non-negative");
    }
    try {
      (CostModel{1.0, bad, 0.8}).validate();
      ADD_FAILURE() << "lambda " << bad << " accepted";
    } catch (const InvalidArgument& error) {
      EXPECT_STREQ(error.what(),
                   "CostModel: lambda must be finite and non-negative");
    }
  }
  const double huge = std::numeric_limits<double>::max();
  EXPECT_NO_THROW((CostModel{huge, huge, 0.8}).validate());
}

TEST(CostModel, FromRhoRejectsBadInputs) {
  EXPECT_THROW((void)CostModel::from_rho(0.0, 6.0, 0.8), InvalidArgument);
  EXPECT_THROW((void)CostModel::from_rho(1.0, 0.0, 0.8), InvalidArgument);
}

TEST(HeterogeneousCostModel, UniformInitAndSymmetry) {
  HeterogeneousCostModel model(3, 1.5, 2.5);
  EXPECT_NEAR(model.mu(0), 1.5, kTol);
  EXPECT_NEAR(model.lambda(0, 1), 2.5, kTol);
  EXPECT_NEAR(model.lambda(1, 1), 0.0, kTol);  // self transfers are free
  model.set_lambda(0, 2, 9.0);
  EXPECT_NEAR(model.lambda(2, 0), 9.0, kTol);  // symmetric update
  model.set_mu(1, 0.25);
  EXPECT_NEAR(model.mu(1), 0.25, kTol);
}

TEST(HeterogeneousCostModel, BoundsChecked) {
  HeterogeneousCostModel model(2, 1.0, 1.0);
  EXPECT_THROW((void)model.mu(5), InvalidArgument);
  EXPECT_THROW(model.set_lambda(0, 5, 1.0), InvalidArgument);
  EXPECT_THROW(model.set_mu(0, -1.0), InvalidArgument);
}

TEST(HeterogeneousCostModel, RejectsRatesThatAreNotFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    EXPECT_THROW(HeterogeneousCostModel(2, bad, 1.0), InvalidArgument) << bad;
    EXPECT_THROW(HeterogeneousCostModel(2, 1.0, bad), InvalidArgument) << bad;
    HeterogeneousCostModel model(2, 1.0, 1.0);
    EXPECT_THROW(model.set_mu(0, bad), InvalidArgument) << bad;
    EXPECT_THROW(model.set_lambda(0, 1, bad), InvalidArgument) << bad;
    EXPECT_EQ(model.mu(0), 1.0);
    EXPECT_EQ(model.lambda(0, 1), 1.0);
  }
}

}  // namespace
}  // namespace dpg
