// Gauss-Seidel NUM oracle: closed-form checks and KKT residual sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "num/num_solver.h"
#include "num/utility.h"
#include "sim/random.h"

namespace numfabric::num {
namespace {

struct Solution {
  std::vector<double> rates;
  std::vector<double> prices;
  int sweeps = 0;
  bool converged = false;
  double max_violation = 0.0;
};

/// max over links of (load - capacity) / capacity at `rates`, over each
/// link's active flows (0 when no link is overloaded).
double max_violation(const CsrProblem& problem, std::span<const double> rates) {
  double worst = 0.0;
  for (std::size_t l = 0; l < problem.num_links(); ++l) {
    double load = 0.0;
    for (const std::int32_t i : problem.link_active_flows(l)) {
      load += rates[static_cast<std::size_t>(i)];
    }
    worst = std::max(worst, (load - problem.capacities()[l]) /
                                problem.capacities()[l]);
  }
  return worst;
}

// Compiles and solves once through the CSR path.
Solution solve_oracle(const NumProblem& problem,
                      const NumSolverOptions& options = {}) {
  const CsrProblem csr = CsrProblem::compile(problem);
  NumWorkspace workspace;
  const SolveStats stats = solve(csr, workspace, options);
  Solution solution;
  solution.rates.assign(workspace.rates().begin(), workspace.rates().end());
  solution.prices.assign(workspace.prices().begin(), workspace.prices().end());
  solution.sweeps = stats.sweeps;
  solution.converged = stats.converged;
  solution.max_violation = max_violation(csr, workspace.rates());
  return solution;
}

TEST(NumSolverTest, SingleLinkEqualLogFlows) {
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u, &u, &u, &u};
  problem.flow_links = {{0}, {0}, {0}, {0}};
  problem.capacities = {100};
  const auto solution = solve_oracle(problem);
  ASSERT_TRUE(solution.converged);
  for (double rate : solution.rates) EXPECT_NEAR(rate, 25.0, 1e-6);
  EXPECT_LT(kkt_residual(problem, solution.rates, solution.prices), 1e-6);
}

TEST(NumSolverTest, WeightedLogFlowsSplitByWeight) {
  AlphaFairUtility u1(1.0, 1.0), u3(1.0, 3.0);
  NumProblem problem;
  problem.utilities = {&u1, &u3};
  problem.flow_links = {{0}, {0}};
  problem.capacities = {100};
  const auto solution = solve_oracle(problem);
  EXPECT_NEAR(solution.rates[0], 25.0, 1e-6);
  EXPECT_NEAR(solution.rates[1], 75.0, 1e-6);
}

TEST(NumSolverTest, ParkingLotProportionalFairness) {
  // Classic result: long flow over n links gets C/(n+1); each one-hop flow
  // gets nC/(n+1).  For n = 2, C = 9: long = 3, shorts = 6.
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u, &u, &u};
  problem.flow_links = {{0, 1}, {0}, {1}};
  problem.capacities = {9, 9};
  const auto solution = solve_oracle(problem);
  EXPECT_NEAR(solution.rates[0], 3.0, 1e-6);
  EXPECT_NEAR(solution.rates[1], 6.0, 1e-6);
  EXPECT_NEAR(solution.rates[2], 6.0, 1e-6);
}

TEST(NumSolverTest, UnderloadedLinkGetsZeroPrice) {
  // One flow, two links, one much bigger: the big link's price must be 0.
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u};
  problem.flow_links = {{0, 1}};
  problem.capacities = {10, 1000};
  const auto solution = solve_oracle(problem);
  EXPECT_NEAR(solution.rates[0], 10.0, 1e-6);
  EXPECT_NEAR(solution.prices[1], 0.0, 1e-9);
  EXPECT_GT(solution.prices[0], 0.0);
}

TEST(NumSolverTest, AlphaInfinityApproachesMaxMin) {
  // alpha = 8 is already close to max-min: parking lot rates ~ (C/2, C/2, C/2).
  AlphaFairUtility u(8.0);
  NumProblem problem;
  problem.utilities = {&u, &u, &u};
  problem.flow_links = {{0, 1}, {0}, {1}};
  problem.capacities = {10, 10};
  const auto solution = solve_oracle(problem);
  EXPECT_NEAR(solution.rates[0], 5.0, 0.3);
  EXPECT_NEAR(solution.rates[1], 5.0, 0.3);
}

TEST(NumSolverTest, WarmStartConverges) {
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u, &u};
  problem.flow_links = {{0}, {0}};
  problem.capacities = {10};
  const auto cold = solve_oracle(problem);
  NumSolverOptions warm_options;
  warm_options.initial_prices = cold.prices;
  const auto warm = solve_oracle(problem, warm_options);
  EXPECT_LE(warm.sweeps, cold.sweeps);
  EXPECT_NEAR(warm.rates[0], cold.rates[0], 1e-9);
}

TEST(NumSolverTest, RejectsMalformedInput) {
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u};
  problem.flow_links = {{0}, {0}};
  problem.capacities = {10};
  EXPECT_THROW(solve_oracle(problem), std::invalid_argument);
  problem.flow_links = {{}};
  EXPECT_THROW(solve_oracle(problem), std::invalid_argument);
  problem.flow_links = {{0}};
  problem.capacities = {-1};
  EXPECT_THROW(solve_oracle(problem), std::invalid_argument);
}

// Random problems across alphas: the solution must satisfy the KKT system
// (Eqs. 5-6) to high precision.
struct SolverCase {
  double alpha;
  int flows;
  int links;
  std::uint64_t seed;
};

class NumSolverRandom : public ::testing::TestWithParam<SolverCase> {};

TEST_P(NumSolverRandom, SatisfiesKkt) {
  const SolverCase param = GetParam();
  sim::Rng rng(param.seed);
  std::vector<std::unique_ptr<AlphaFairUtility>> utilities;
  NumProblem problem;
  problem.capacities.resize(static_cast<std::size_t>(param.links));
  for (auto& c : problem.capacities) c = rng.uniform(10.0, 100.0);
  for (int i = 0; i < param.flows; ++i) {
    utilities.push_back(
        std::make_unique<AlphaFairUtility>(param.alpha, rng.uniform(0.5, 2.0)));
    problem.utilities.push_back(utilities.back().get());
    std::vector<int> links;
    const int hops = static_cast<int>(rng.uniform_int(1, 3));
    for (int h = 0; h < hops; ++h) {
      const int link = static_cast<int>(rng.index(static_cast<std::size_t>(param.links)));
      if (std::find(links.begin(), links.end(), link) == links.end()) {
        links.push_back(link);
      }
    }
    problem.flow_links.push_back(links);
  }
  const auto solution = solve_oracle(problem);
  EXPECT_TRUE(solution.converged);
  EXPECT_LT(solution.max_violation, 1e-6);
  EXPECT_LT(kkt_residual(problem, solution.rates, solution.prices), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, NumSolverRandom,
    ::testing::Values(SolverCase{0.5, 10, 4, 1}, SolverCase{1.0, 10, 4, 2},
                      SolverCase{2.0, 10, 4, 3}, SolverCase{1.0, 50, 10, 4},
                      SolverCase{4.0, 30, 8, 5}, SolverCase{0.125, 20, 6, 6},
                      SolverCase{1.0, 200, 30, 7}));

}  // namespace
}  // namespace numfabric::num
