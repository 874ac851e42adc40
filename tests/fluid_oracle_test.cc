// Event-driven fluid FCT oracle tests.
#include <gtest/gtest.h>

#include "num/csr_problem.h"
#include "num/fluid_fct_oracle.h"
#include "num/num_solver.h"
#include "num/utility.h"
#include "sim/substrate_stats.h"

namespace numfabric::num {
namespace {

TEST(FluidFctOracleTest, LoneFlowRunsAtCapacity) {
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(1);
  flows[0].arrival_seconds = 0;
  flows[0].size_bytes = 1e6;  // 8 Mbit
  flows[0].links = {0};
  flows[0].utility = &u;
  const auto result = fluid_fct_oracle(flows, {10'000.0});  // 10 Gbps
  EXPECT_NEAR(result.fct_seconds[0], 8e6 / 10e9, 1e-9);
  EXPECT_NEAR(result.ideal_rate[0], 10'000.0, 1e-6);
}

TEST(FluidFctOracleTest, TwoSimultaneousFlowsShare) {
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(2);
  for (auto& f : flows) {
    f.arrival_seconds = 0;
    f.size_bytes = 1e6;
    f.links = {0};
    f.utility = &u;
  }
  const auto result = fluid_fct_oracle(flows, {10'000.0});
  // Both share 5 Gbps until they finish together: FCT = 8Mb / 5Gbps.
  EXPECT_NEAR(result.fct_seconds[0], 8e6 / 5e9, 1e-9);
  EXPECT_NEAR(result.fct_seconds[1], 8e6 / 5e9, 1e-9);
}

TEST(FluidFctOracleTest, LateArrivalSlowsFirstFlow) {
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(2);
  flows[0] = {0.0, 2e6, {0}, &u};
  flows[1] = {0.8e-3, 2e6, {0}, &u};  // arrives when flow 0 is half done
  const auto result = fluid_fct_oracle(flows, {10'000.0});
  // Flow 0: 0.8 ms alone (8 Mb at 10G) + shares afterwards.
  EXPECT_GT(result.fct_seconds[0], 1.6e-3 * 0.99);
  EXPECT_GT(result.fct_seconds[1], result.fct_seconds[0] - 0.8e-3);
  // Work conservation: total bytes delivered / total time ~ capacity while
  // both active.
  EXPECT_LT(result.fct_seconds[0], 2.5e-3);
}

TEST(FluidFctOracleTest, ResultsInInputOrderNotArrivalOrder) {
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(2);
  flows[0] = {5e-3, 1e6, {0}, &u};  // arrives later but is index 0
  flows[1] = {0.0, 1e6, {0}, &u};
  const auto result = fluid_fct_oracle(flows, {10'000.0});
  EXPECT_NEAR(result.fct_seconds[0], 0.8e-3, 1e-6);
  EXPECT_NEAR(result.fct_seconds[1], 0.8e-3, 1e-6);
}

TEST(FluidFctOracleTest, MultiLinkAllocation) {
  // Parking lot: the long flow gets C/3 under proportional fairness while
  // both shorts are active.
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(3);
  flows[0] = {0.0, 10e6, {0, 1}, &u};
  flows[1] = {0.0, 10e6, {0}, &u};
  flows[2] = {0.0, 10e6, {1}, &u};
  const auto result = fluid_fct_oracle(flows, {9'000.0, 9'000.0});
  // Shorts run at 6 Gbps, the long flow at 3 Gbps initially; shorts finish
  // first, then the long flow speeds up.
  EXPECT_LT(result.fct_seconds[1], result.fct_seconds[0]);
  EXPECT_LT(result.fct_seconds[2], result.fct_seconds[0]);
}

TEST(FluidFctOracleTest, WarmStartPreservesPhysicsAndSavesSweeps) {
  // A staggered arrival/completion sequence over two links exercising many
  // re-solves with slowly-changing active sets — the shape the warm start
  // (threading each solution's prices into the next solve) exists for.
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(6);
  const std::vector<double> capacities = {9'000.0, 9'000.0};
  flows[0] = {0.0, 4e6, {0, 1}, &u};
  flows[1] = {0.0, 2e6, {0}, &u};
  flows[2] = {0.3e-3, 2e6, {1}, &u};
  flows[3] = {0.9e-3, 3e6, {0}, &u};
  flows[4] = {1.4e-3, 1e6, {0, 1}, &u};
  flows[5] = {2.5e-3, 2e6, {1}, &u};
  const auto warm = fluid_fct_oracle(flows, capacities);

  // Physics unchanged by warm starting: flow 1 (short, one link) beats
  // flow 0 (longer, two links), everyone finishes, and the whole run is
  // deterministic.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_GT(warm.fct_seconds[i], 0.0);
  }
  EXPECT_LT(warm.fct_seconds[1], warm.fct_seconds[0]);
  const auto again = fluid_fct_oracle(flows, capacities);
  EXPECT_EQ(warm.fct_seconds, again.fct_seconds);
  EXPECT_EQ(warm.sweeps, again.sweeps);

  // The savings claim: re-solves start at the previous optimum, so the
  // whole event sequence must cost well under `solves` cold solves.  The
  // cold cost of this problem family is measured directly.
  NumProblem cold_problem;
  cold_problem.capacities = capacities;
  for (const FluidFlow& f : flows) {
    cold_problem.utilities.push_back(f.utility);
    cold_problem.flow_links.push_back(f.links);
  }
  const CsrProblem cold_csr = CsrProblem::compile(cold_problem);
  NumWorkspace cold_workspace;
  const int cold_sweeps = solve(cold_csr, cold_workspace, {}).sweeps;
  ASSERT_GT(warm.solves, 6);  // arrivals + completions both trigger solves
  EXPECT_LT(warm.sweeps, static_cast<std::int64_t>(warm.solves) * cold_sweeps)
      << "warm-started re-solves should cost less than cold restarts "
      << "(solves=" << warm.solves << ", cold sweeps each=" << cold_sweeps
      << ")";
}

// The oracle is the flow engine's exact mode, stepped without run(): its
// solves show in the solver counters but never in the flowsim_* perf rows,
// which count fidelity=flow runs only.
TEST(FluidFctOracleTest, BooksSolvesButNoFlowsimCounters) {
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(2);
  flows[0] = {0.0, 2e6, {0}, &u};
  flows[1] = {0.8e-3, 2e6, {0}, &u};
  const sim::SubstrateStats before = sim::substrate_stats();
  const auto result = fluid_fct_oracle(flows, {10'000.0});
  const sim::SubstrateStats delta = sim::substrate_stats() - before;
  EXPECT_EQ(result.solves, 3);  // two arrivals, one departure
  EXPECT_EQ(delta.solver_solves, 3u);
  EXPECT_EQ(delta.flowsim_epochs, 0u);
  EXPECT_EQ(delta.flowsim_resolves, 0u);
}

TEST(FluidFctOracleTest, RejectsMalformedFlows) {
  AlphaFairUtility u(1.0);
  std::vector<FluidFlow> flows(1);
  flows[0] = {0.0, 0.0, {0}, &u};
  EXPECT_THROW(fluid_fct_oracle(flows, {10.0}), std::invalid_argument);
  flows[0] = {0.0, 1e6, {}, &u};
  EXPECT_THROW(fluid_fct_oracle(flows, {10.0}), std::invalid_argument);
  flows[0] = {0.0, 1e6, {0}, nullptr};
  EXPECT_THROW(fluid_fct_oracle(flows, {10.0}), std::invalid_argument);
}

}  // namespace
}  // namespace numfabric::num
