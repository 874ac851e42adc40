// Fluid-level xWI: the dynamical system's fixed point must solve the NUM
// problem (§4.2); convergence should be fast and insensitive to eta.
#include <gtest/gtest.h>

#include <memory>

#include "num/csr_problem.h"
#include "num/num_solver.h"
#include "num/utility.h"
#include "num/xwi_fluid.h"
#include "sim/random.h"

namespace numfabric::num {
namespace {

// Oracle rates via the compiled CSR path.
std::vector<double> oracle_rates(const NumProblem& problem) {
  const CsrProblem csr = CsrProblem::compile(problem);
  NumWorkspace workspace;
  solve(csr, workspace, {});
  return {workspace.rates().begin(), workspace.rates().end()};
}

NumProblem random_problem(double alpha, int flows, int links, std::uint64_t seed,
                          std::vector<std::unique_ptr<AlphaFairUtility>>& store) {
  sim::Rng rng(seed);
  NumProblem problem;
  problem.capacities.resize(static_cast<std::size_t>(links));
  for (auto& c : problem.capacities) c = rng.uniform(10.0, 100.0);
  for (int i = 0; i < flows; ++i) {
    store.push_back(
        std::make_unique<AlphaFairUtility>(alpha, rng.uniform(0.5, 2.0)));
    problem.utilities.push_back(store.back().get());
    std::vector<int> path;
    const int hops = static_cast<int>(rng.uniform_int(1, 3));
    for (int h = 0; h < hops; ++h) {
      const int link = static_cast<int>(rng.index(static_cast<std::size_t>(links)));
      if (std::find(path.begin(), path.end(), link) == path.end()) {
        path.push_back(link);
      }
    }
    problem.flow_links.push_back(path);
  }
  return problem;
}

TEST(XwiFluidTest, SingleLinkFixedPointIsOptimal) {
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u, &u};
  problem.flow_links = {{0}, {0}};
  problem.capacities = {100};
  const auto xwi = xwi_fluid_solve(problem);
  EXPECT_TRUE(xwi.converged);
  EXPECT_NEAR(xwi.rates[0], 50.0, 1e-3);
  EXPECT_NEAR(xwi.rates[1], 50.0, 1e-3);
}

TEST(XwiFluidTest, MatchesNumOracleOnParkingLot) {
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u, &u, &u};
  problem.flow_links = {{0, 1}, {0}, {1}};
  problem.capacities = {9, 9};
  const auto oracle = oracle_rates(problem);
  const auto xwi = xwi_fluid_solve(problem);
  ASSERT_TRUE(xwi.converged);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(xwi.rates[i], oracle[i], 1e-3 * oracle[i]);
  }
}

TEST(XwiFluidTest, ErrorTraceReachesOptimumQuickly) {
  std::vector<std::unique_ptr<AlphaFairUtility>> store;
  const NumProblem problem = random_problem(1.0, 20, 6, 42, store);
  const auto oracle = oracle_rates(problem);
  const auto xwi = xwi_fluid_solve(problem, {}, oracle);
  ASSERT_TRUE(xwi.converged);
  ASSERT_FALSE(xwi.error_trace.empty());
  // Within 100 iterations the max relative rate error is below 1%.
  const std::size_t check = std::min<std::size_t>(100, xwi.error_trace.size() - 1);
  EXPECT_LT(xwi.error_trace[check], 0.01);
  EXPECT_LT(xwi.error_trace.back(), 1e-4);
}

class XwiAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(XwiAlphaSweep, FixedPointMatchesOracle) {
  std::vector<std::unique_ptr<AlphaFairUtility>> store;
  const NumProblem problem = random_problem(GetParam(), 15, 5, 7, store);
  const auto oracle = oracle_rates(problem);
  const auto xwi = xwi_fluid_solve(problem);
  ASSERT_TRUE(xwi.converged) << "alpha=" << GetParam();
  for (std::size_t i = 0; i < problem.utilities.size(); ++i) {
    EXPECT_NEAR(xwi.rates[i], oracle[i], 5e-3 * oracle[i])
        << "alpha=" << GetParam() << " flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, XwiAlphaSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

class XwiEtaSweep : public ::testing::TestWithParam<double> {};

TEST_P(XwiEtaSweep, LargelyInsensitiveToEta) {
  // §4.2: "xWI is largely insensitive to the value of eta."
  std::vector<std::unique_ptr<AlphaFairUtility>> store;
  const NumProblem problem = random_problem(1.0, 12, 4, 11, store);
  const auto oracle = oracle_rates(problem);
  XwiFluidOptions options;
  options.eta = GetParam();
  const auto xwi = xwi_fluid_solve(problem, options);
  ASSERT_TRUE(xwi.converged) << "eta=" << GetParam();
  for (std::size_t i = 0; i < problem.utilities.size(); ++i) {
    EXPECT_NEAR(xwi.rates[i], oracle[i], 5e-3 * oracle[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(EtaSweep, XwiEtaSweep,
                         ::testing::Values(0.5, 2.0, 5.0, 10.0));

TEST(XwiFluidTest, WeightsEqualRatesAtFixedPoint) {
  // At the fixed point, Eq. 7's weights equal the optimal rates (§4.2).
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u, &u, &u};
  problem.flow_links = {{0}, {0}, {1}};
  problem.capacities = {60, 40};
  const auto xwi = xwi_fluid_solve(problem);
  ASSERT_TRUE(xwi.converged);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(xwi.weights[i], xwi.rates[i], 1e-3 * xwi.rates[i]);
  }
}

}  // namespace
}  // namespace numfabric::num
