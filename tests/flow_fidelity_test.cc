// Flow-fluid engine cross-validation.
//
//  * grid mode upper-bounds exact FCTs and converges as the period shrinks;
//  * flow-vs-packet FCT comparison on a dumbbell and a small leaf-spine
//    (tolerance bands documented inline — the fluid model omits queueing
//    delay and convergence transients, so packet FCTs sit slightly above);
//  * VirtualLeafSpine path/capacity arithmetic;
//  * mega-fct mini-run sanity and the scenario layer's scheme gating;
//  * incremental (tier-2) re-solves vs full re-solves: FCTs within one grid
//    interval and a solver-tolerance mean band in grid mode, within 1e-5
//    relative in exact mode, bit-identical across solver thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "exp/dynamic_workload.h"
#include "exp/flow_fidelity.h"
#include "flowsim/flow_sim_engine.h"
#include "flowsim/virtual_fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "num/utility.h"
#include "transport/fabric.h"

namespace numfabric {
namespace {

using flowsim::FlowSimEngine;
using flowsim::FlowSimFlow;
using flowsim::FlowSimOptions;
using flowsim::FlowSimResult;

// The staggered two-link sequence from the fluid-oracle tests: arrivals and
// departures interleave, so it exercises admissions, retirements and warm
// re-solves in both engines.
std::vector<FlowSimFlow> staggered_flows(const num::UtilityFunction* u) {
  std::vector<FlowSimFlow> flows(6);
  flows[0] = {0.0, 4e6, {0, 1}, u};
  flows[1] = {0.0, 2e6, {0}, u};
  flows[2] = {0.3e-3, 2e6, {1}, u};
  flows[3] = {0.9e-3, 3e6, {0}, u};
  flows[4] = {1.4e-3, 1e6, {0, 1}, u};
  flows[5] = {2.5e-3, 2e6, {1}, u};
  return flows;
}

double mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

TEST(FlowSimEngineTest, GridModeUpperBoundsAndConvergesToExact) {
  num::AlphaFairUtility u(1.0);
  const auto flows = staggered_flows(&u);
  const std::vector<double> capacities = {9'000.0, 9'000.0};
  const FlowSimResult exact = FlowSimEngine(flows, capacities).run();

  double previous_error = std::numeric_limits<double>::infinity();
  for (const double period : {1e-4, 1e-5, 1e-6}) {
    FlowSimOptions options;
    options.resolve_interval_seconds = period;
    const FlowSimResult grid = FlowSimEngine(flows, capacities, options).run();
    ASSERT_EQ(grid.completed, static_cast<int>(flows.size())) << period;
    double max_error = 0.0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      // Frozen rates and grid-point admission only delay completions: each
      // grid FCT upper-bounds the exact one (up to one period of slack from
      // departure-time rounding inside a window).
      EXPECT_GE(grid.fct_seconds[i], exact.fct_seconds[i] - period) << i;
      max_error = std::max(max_error, std::abs(grid.fct_seconds[i] -
                                               exact.fct_seconds[i]));
    }
    // Error shrinks with the period and is O(period)-sized.
    EXPECT_LE(max_error, previous_error + 1e-12);
    EXPECT_LT(max_error, 10 * period + 1e-9);
    previous_error = max_error;
    // One solve per tick (plus the initial admission), not per flow event.
    EXPECT_LE(grid.resolves, static_cast<std::int64_t>(
                                 grid.end_seconds / period) + 2);
  }
}

TEST(FlowSimEngineTest, HorizonMarksStragglersIncomplete) {
  num::AlphaFairUtility u(1.0);
  std::vector<FlowSimFlow> flows(2);
  flows[0] = {0.0, 1e6, {0}, &u};    // finishes fast
  flows[1] = {0.0, 1e12, {0}, &u};   // cannot finish by the horizon
  FlowSimOptions options;
  options.horizon_seconds = 0.01;
  const FlowSimResult result = FlowSimEngine(flows, {10'000.0}, options).run();
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.incomplete, 1);
  EXPECT_GT(result.fct_seconds[0], 0.0);
  EXPECT_LT(result.fct_seconds[1], 0.0);  // negative marks incomplete
}

TEST(FlowSimEngineTest, ResetReplaysIdentically) {
  num::AlphaFairUtility u(1.0);
  const auto flows = staggered_flows(&u);
  FlowSimEngine engine(flows, {9'000.0, 9'000.0}, {});
  const FlowSimResult first = engine.run();
  engine.reset();
  const FlowSimResult second = engine.run();
  EXPECT_EQ(first.fct_seconds, second.fct_seconds);
  EXPECT_EQ(first.resolves, second.resolves);
}

// ---------------------------------------------------------------------------
// Flow vs packet: dumbbell.
// ---------------------------------------------------------------------------

// Three staggered finite flows over one 10G bottleneck, packet-level
// NUMFabric vs the exact flow-fluid engine.  The fluid model has no
// queueing, packetization or convergence transient, so packet FCTs sit a
// little above fluid ones; with multi-millisecond FCTs (microsecond RTTs)
// the gap is small.  Band: mean FCT within 25%, per-flow within 35%.
TEST(FlowFidelityCrossValidation, DumbbellFlowVsPacketFct) {
  const std::vector<double> sizes_bytes = {4e6, 2e6, 1e6};
  const std::vector<double> starts_seconds = {0.0, 0.5e-3, 1.0e-3};

  // Packet side.
  sim::Simulator sim;
  transport::FabricOptions fabric_options;
  fabric_options.scheme = transport::Scheme::kNumFabric;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  const net::Dumbbell dumbbell =
      net::build_dumbbell(topo, 3, /*edge_bps=*/40e9, /*bottleneck_bps=*/10e9,
                          sim::micros(2), fabric.queue_factory());
  fabric.attach_agents(topo);
  num::AlphaFairUtility u(1.0);
  std::vector<transport::Flow*> packet_flows;
  for (std::size_t i = 0; i < sizes_bytes.size(); ++i) {
    transport::FlowSpec spec;
    spec.src = dumbbell.senders[i];
    spec.dst = dumbbell.receivers[i];
    spec.size_bytes = static_cast<std::uint64_t>(sizes_bytes[i]);
    spec.start_time = sim::TimeNs(starts_seconds[i] * sim::kSecond);
    spec.utility = &u;
    spec.path = net::all_shortest_paths(topo, spec.src, spec.dst).front();
    packet_flows.push_back(fabric.add_flow(std::move(spec)));
  }
  sim.run_until(sim::millis(100));

  // Fluid side: every flow crosses the one shared bottleneck.
  std::vector<FlowSimFlow> fluid_flows(sizes_bytes.size());
  for (std::size_t i = 0; i < sizes_bytes.size(); ++i) {
    fluid_flows[i] = {starts_seconds[i], sizes_bytes[i], {0}, &u};
  }
  const FlowSimResult fluid = FlowSimEngine(fluid_flows, {10'000.0}).run();

  std::vector<double> packet_fct, fluid_fct;
  for (std::size_t i = 0; i < sizes_bytes.size(); ++i) {
    ASSERT_TRUE(packet_flows[i]->completed()) << "packet flow " << i;
    packet_fct.push_back(sim::to_seconds(packet_flows[i]->fct()));
    fluid_fct.push_back(fluid.fct_seconds[i]);
    EXPECT_NEAR(packet_fct[i], fluid_fct[i], 0.35 * fluid_fct[i])
        << "flow " << i;
  }
  EXPECT_NEAR(mean(packet_fct), mean(fluid_fct), 0.25 * mean(fluid_fct));
}

// ---------------------------------------------------------------------------
// Flow vs packet: small leaf-spine Poisson workload.
// ---------------------------------------------------------------------------

// The same seeded websearch workload (identical RNG draws and ECMP picks)
// through the packet substrate and the flow runner.  Fluid FCTs carry the
// one-RTT latency charge; small flows are still RTT/convergence-dominated
// at packet level, so the band is wide: mean FCT ratio in [0.5, 2.0].
TEST(FlowFidelityCrossValidation, LeafSpineFlowVsPacketMeanFct) {
  exp::DynamicWorkloadOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.flow_count = 40;
  options.load = 0.3;
  options.seed = 5;
  options.horizon = sim::seconds(2);

  const exp::DynamicWorkloadResult packet = exp::run_dynamic_workload(options);
  const exp::DynamicWorkloadResult flow =
      exp::run_dynamic_workload_flow(options, /*resolve_interval_seconds=*/0);

  ASSERT_FALSE(packet.flows.empty());
  ASSERT_FALSE(flow.flows.empty());
  // The flow runner draws the identical workload: same flow count and sizes.
  ASSERT_EQ(flow.flows.size() + static_cast<std::size_t>(flow.incomplete),
            packet.flows.size() + static_cast<std::size_t>(packet.incomplete));

  std::vector<double> packet_fct, flow_fct;
  for (const auto& f : packet.flows) packet_fct.push_back(f.fct_seconds);
  for (const auto& f : flow.flows) flow_fct.push_back(f.fct_seconds);
  const double ratio = mean(packet_fct) / mean(flow_fct);
  EXPECT_GT(ratio, 0.5) << "packet mean " << mean(packet_fct) << " flow mean "
                        << mean(flow_fct);
  EXPECT_LT(ratio, 2.0) << "packet mean " << mean(packet_fct) << " flow mean "
                        << mean(flow_fct);
}

// The same cross-validation on a small jellyfish fabric: both fidelities
// build the identical graph (same jf seed), draw the identical workload and
// pick the same k-shortest route per flow, so the only difference is the
// substrate.  Same band as the leaf-spine test: mean FCT ratio in [0.5, 2.0].
TEST(FlowFidelityCrossValidation, JellyfishFlowVsPacketMeanFct) {
  exp::DynamicWorkloadOptions options;
  options.jellyfish = net::JellyfishOptions{
      .switches = 4, .ports = 2, .hosts = 8, .seed = 3};
  options.k_paths = 4;
  options.flow_count = 40;
  options.load = 0.3;
  options.seed = 5;
  options.horizon = sim::seconds(2);

  const exp::DynamicWorkloadResult packet = exp::run_dynamic_workload(options);
  const exp::DynamicWorkloadResult flow =
      exp::run_dynamic_workload_flow(options, /*resolve_interval_seconds=*/0);

  ASSERT_FALSE(packet.flows.empty());
  ASSERT_FALSE(flow.flows.empty());
  ASSERT_EQ(flow.flows.size() + static_cast<std::size_t>(flow.incomplete),
            packet.flows.size() + static_cast<std::size_t>(packet.incomplete));

  std::vector<double> packet_fct, flow_fct;
  for (const auto& f : packet.flows) packet_fct.push_back(f.fct_seconds);
  for (const auto& f : flow.flows) flow_fct.push_back(f.fct_seconds);
  const double ratio = mean(packet_fct) / mean(flow_fct);
  EXPECT_GT(ratio, 0.5) << "packet mean " << mean(packet_fct) << " flow mean "
                        << mean(flow_fct);
  EXPECT_LT(ratio, 2.0) << "packet mean " << mean(packet_fct) << " flow mean "
                        << mean(flow_fct);
}

// ---------------------------------------------------------------------------
// VirtualLeafSpine arithmetic.
// ---------------------------------------------------------------------------

TEST(VirtualLeafSpineTest, CapacitiesFollowLayout) {
  const flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 2,
                                         .leaves = 3,
                                         .spines = 2,
                                         .host_rate = 10e3,
                                         .leaf_spine_rate = 40e3};
  EXPECT_EQ(fabric.hosts(), 6);
  EXPECT_EQ(fabric.links(), 2 * 6 + 2 * 3 * 2);
  const std::vector<double> capacities = fabric.capacities();
  ASSERT_EQ(capacities.size(), static_cast<std::size_t>(fabric.links()));
  for (int l = 0; l < 2 * fabric.hosts(); ++l) {
    EXPECT_EQ(capacities[static_cast<std::size_t>(l)], 10e3) << l;
  }
  for (int l = 2 * fabric.hosts(); l < fabric.links(); ++l) {
    EXPECT_EQ(capacities[static_cast<std::size_t>(l)], 40e3) << l;
  }
}

TEST(VirtualLeafSpineTest, PathsUseTheDocumentedIndices) {
  const flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 2,
                                         .leaves = 3,
                                         .spines = 2,
                                         .host_rate = 10e3,
                                         .leaf_spine_rate = 40e3};
  // Same leaf: src uplink, dst downlink.
  const auto same_leaf = fabric.path(0, 1, 7);
  ASSERT_EQ(same_leaf.size(), 2u);
  EXPECT_EQ(same_leaf[0], 0);
  EXPECT_EQ(same_leaf[1], fabric.hosts() + 1);

  // Cross leaf: uplink, leaf->spine, spine->leaf, downlink; deterministic in
  // the tiebreak and always a valid spine.
  const auto cross = fabric.path(0, 5, 7);
  ASSERT_EQ(cross.size(), 4u);
  EXPECT_EQ(cross[0], 0);
  EXPECT_EQ(cross[3], fabric.hosts() + 5);
  const int ls_base = 2 * fabric.hosts();
  EXPECT_GE(cross[1], ls_base + fabric.leaf_of(0) * fabric.spines);
  EXPECT_LT(cross[1], ls_base + (fabric.leaf_of(0) + 1) * fabric.spines);
  const int sl_base = ls_base + fabric.leaves * fabric.spines;
  EXPECT_GE(cross[2], sl_base + fabric.leaf_of(5) * fabric.spines);
  EXPECT_LT(cross[2], sl_base + (fabric.leaf_of(5) + 1) * fabric.spines);
  // Same spine on both hops.
  EXPECT_EQ(cross[1] - ls_base - fabric.leaf_of(0) * fabric.spines,
            cross[2] - sl_base - fabric.leaf_of(5) * fabric.spines);
  EXPECT_EQ(cross, fabric.path(0, 5, 7));  // deterministic

  EXPECT_THROW(fabric.path(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(fabric.path(-1, 2, 1), std::invalid_argument);
  EXPECT_THROW(fabric.path(0, fabric.hosts(), 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// mega-fct mini-run.
// ---------------------------------------------------------------------------

TEST(MegaFctTest, MiniRunCompletesWithGridCounters) {
  exp::MegaFctOptions options;
  options.fabric = {.hosts_per_leaf = 4,
                    .leaves = 2,
                    .spines = 2,
                    .host_rate = 10e3,
                    .leaf_spine_rate = 40e3};
  options.concurrent = 2000;
  options.resolve_interval_seconds = 5e-4;
  options.horizon_seconds = 10.0;
  options.seed = 9;
  const exp::MegaFctResult result = exp::run_mega_fct(options);

  EXPECT_EQ(result.sim.completed + result.sim.incomplete, options.concurrent);
  EXPECT_GT(result.sim.completed, options.concurrent * 9 / 10);
  EXPECT_EQ(result.sim.peak_active, 2000u);  // all arrive at t = 0
  EXPECT_EQ(result.size_bytes.size(), 2000u);
  // Grid discipline: far fewer solves than flow events.
  EXPECT_LT(result.sim.resolves, result.sim.epochs);
  EXPECT_GT(result.sim.resolves, 0);
  EXPECT_GT(result.sim.solver_sweeps, 0);

  // Exact mode at this scale is refused by construction.
  options.resolve_interval_seconds = 0;
  EXPECT_THROW(exp::run_mega_fct(options), std::invalid_argument);
}

// Incremental (tier-2) property at the experiment level: the same mini
// mega-fct batch with incremental ON converges to the same answers as full
// re-solves — every FCT within one resolve interval (grid slack) and the
// mean within a solver-tolerance band — and the incremental run is
// bit-identical across solver thread counts.  Mirrors the CI sweep-smoke
// leg.
TEST(MegaFctTest, IncrementalMatchesFullWithinToleranceBand) {
  exp::MegaFctOptions options;
  options.fabric = {.hosts_per_leaf = 4,
                    .leaves = 2,
                    .spines = 2,
                    .host_rate = 10e3,
                    .leaf_spine_rate = 40e3};
  options.concurrent = 1000;
  options.resolve_interval_seconds = 5e-4;
  options.horizon_seconds = 10.0;
  options.seed = 9;

  options.incremental = false;
  const exp::MegaFctResult full = exp::run_mega_fct(options);
  options.incremental = true;
  const exp::MegaFctResult inc = exp::run_mega_fct(options);
  options.solver_threads = 4;
  const exp::MegaFctResult inc4 = exp::run_mega_fct(options);

  // Full solves never take the worklist path; incremental ones must.
  EXPECT_EQ(full.sim.solver_relaxations, 0);
  EXPECT_GT(inc.sim.solver_relaxations, 0);

  ASSERT_EQ(inc.sim.fct_seconds.size(), full.sim.fct_seconds.size());
  EXPECT_EQ(inc.sim.completed, full.sim.completed);
  double full_sum = 0.0;
  double inc_sum = 0.0;
  for (std::size_t i = 0; i < full.sim.fct_seconds.size(); ++i) {
    const double a = inc.sim.fct_seconds[i];
    const double b = full.sim.fct_seconds[i];
    if (a < 0.0 || b < 0.0) {
      EXPECT_EQ(a < 0.0, b < 0.0) << "completion status diverged, flow " << i;
      continue;
    }
    // Rates agree to the solver tolerance, so a completion can slip by at
    // most one grid point at a knife-edge.
    EXPECT_LE(std::abs(a - b), options.resolve_interval_seconds + 1e-9)
        << "flow " << i;
    full_sum += b;
    inc_sum += a;
  }
  EXPECT_NEAR(inc_sum / full_sum, 1.0, 1e-3);

  // The worklist is serial and verification sweeps are wave-deterministic:
  // thread count changes wall time, never bytes.
  EXPECT_EQ(inc4.sim.fct_seconds, inc.sim.fct_seconds);
  EXPECT_EQ(inc4.sim.solver_relaxations, inc.sim.solver_relaxations);
}

// The same ON-vs-OFF band through the dynamic-workload flow runner (grid
// mode): identical seeded workload, FCTs within one grid interval per flow.
TEST(FlowFidelityCrossValidation, DynamicWorkloadIncrementalMatchesFull) {
  exp::DynamicWorkloadOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.flow_count = 40;
  options.load = 0.3;
  options.seed = 5;
  options.horizon = sim::seconds(2);
  const double resolve = 5e-5;

  const exp::DynamicWorkloadResult full =
      exp::run_dynamic_workload_flow(options, resolve, /*incremental=*/false);
  const exp::DynamicWorkloadResult inc =
      exp::run_dynamic_workload_flow(options, resolve, /*incremental=*/true);

  ASSERT_EQ(inc.flows.size(), full.flows.size());
  EXPECT_EQ(inc.incomplete, full.incomplete);
  for (std::size_t i = 0; i < full.flows.size(); ++i) {
    EXPECT_LE(std::abs(inc.flows[i].fct_seconds - full.flows[i].fct_seconds),
              resolve + 1e-9)
        << "flow " << i;
  }
}

// The same ON-vs-OFF comparison in exact mode (re-solve at every arrival
// and departure), on a scaled-down flow-exact shape: web-search flows at
// load 0.3 on 16x8x4.  Incremental re-solves verify only the links whose
// inputs moved; every FCT must stay within 1e-5 relative of the full
// solves' (the largest gap seen here is 2.9e-6), with the same incomplete
// count, and the incremental output must not depend on the thread count.
TEST(FlowFidelityCrossValidation, ExactModeIncrementalMatchesFull) {
  exp::DynamicWorkloadOptions options;
  options.topology.hosts_per_leaf = 16;
  options.topology.num_leaves = 8;
  options.topology.num_spines = 4;
  options.flow_count = 500;
  options.load = 0.3;
  options.seed = 5;

  const exp::DynamicWorkloadResult full =
      exp::run_dynamic_workload_flow(options, 0.0, /*incremental=*/false);
  const exp::DynamicWorkloadResult inc =
      exp::run_dynamic_workload_flow(options, 0.0, /*incremental=*/true);
  options.solver_threads = 4;
  const exp::DynamicWorkloadResult inc4 =
      exp::run_dynamic_workload_flow(options, 0.0, /*incremental=*/true);

  EXPECT_EQ(inc.incomplete, full.incomplete);
  ASSERT_EQ(inc.flows.size(), full.flows.size());
  ASSERT_GT(inc.flows.size(), 400u);
  for (std::size_t i = 0; i < full.flows.size(); ++i) {
    const double a = inc.flows[i].fct_seconds;
    const double b = full.flows[i].fct_seconds;
    EXPECT_LE(std::abs(a - b), 1e-5 * b) << "flow row " << i;
  }

  ASSERT_EQ(inc4.flows.size(), inc.flows.size());
  EXPECT_EQ(inc4.incomplete, inc.incomplete);
  for (std::size_t i = 0; i < inc.flows.size(); ++i) {
    EXPECT_EQ(inc4.flows[i].fct_seconds, inc.flows[i].fct_seconds)
        << "flow row " << i;
    EXPECT_EQ(inc4.flows[i].ideal_rate_bps, inc.flows[i].ideal_rate_bps)
        << "flow row " << i;
  }
}

TEST(MegaFctTest, JellyfishGraphFabricRuns) {
  exp::MegaFctOptions options;
  options.jellyfish = net::JellyfishOptions{
      .switches = 8, .ports = 3, .hosts = 16, .seed = 2};
  options.k_paths = 4;
  options.concurrent = 1000;
  options.resolve_interval_seconds = 5e-4;
  options.horizon_seconds = 10.0;
  options.seed = 9;
  const exp::MegaFctResult result = exp::run_mega_fct(options);

  EXPECT_EQ(result.hosts, 16);
  // 16 edge cables + 8 * 3 / 2 core cables, two directed links each.
  EXPECT_EQ(result.links, 2 * (16 + 8 * 3 / 2));
  EXPECT_EQ(result.sim.completed + result.sim.incomplete, options.concurrent);
  EXPECT_GT(result.sim.completed, options.concurrent * 9 / 10);
  EXPECT_GT(result.sim.resolves, 0);

  // Same options -> bit-identical FCTs (graph wiring and path table are
  // deterministic in the seed).
  const exp::MegaFctResult again = exp::run_mega_fct(options);
  EXPECT_EQ(result.sim.fct_seconds, again.sim.fct_seconds);
}

}  // namespace
}  // namespace numfabric
