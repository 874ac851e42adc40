// Experiment-driver tests on miniature configurations (the benches run the
// real scales; here we verify the drivers' mechanics end to end).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "exp/bwfunc_experiment.h"
#include "exp/common.h"
#include "exp/config.h"
#include "exp/contention_experiment.h"
#include "exp/dynamic_workload.h"
#include "exp/semi_dynamic.h"
#include "exp/traffic_experiment.h"
#include "net/routing.h"

namespace numfabric::exp {
namespace {

TEST(CommonTest, LinkIndexerMapsAllLinks) {
  sim::Simulator sim;
  net::Topology topo(sim);
  const net::FabricGraph graph = net::make_leaf_spine(
      {.hosts_per_leaf = 2, .num_leaves = 2, .num_spines = 2});
  topo.materialize(graph, net::drop_tail_factory());
  const LinkIndexer indexer(topo);
  ASSERT_EQ(indexer.capacities().size(), topo.links().size());
  for (std::size_t i = 0; i < topo.links().size(); ++i) {
    EXPECT_DOUBLE_EQ(indexer.capacities()[i],
                     topo.links()[i]->rate_bps() / 1e6);
  }
  // Graph link l is Topology::links()[l], so both capacity vectors agree.
  EXPECT_EQ(indexer.capacities(), graph_capacities(graph));
}

TEST(CommonTest, ScaleFromEnvDefaultsQuick) {
  const Scale scale = quick_scale();
  EXPECT_FALSE(scale.full);
  const Scale full = full_scale();
  EXPECT_TRUE(full.full);
  EXPECT_EQ(full.num_paths, 1000);
  EXPECT_EQ(full.num_events, 100);
}

std::vector<int> host_nodes_of(const net::FabricGraph& graph) {
  std::vector<int> hosts;
  for (int n = 0; n < graph.num_nodes(); ++n) {
    if (graph.nodes()[static_cast<std::size_t>(n)].kind ==
        net::GraphNodeKind::kHost) {
      hosts.push_back(n);
    }
  }
  return hosts;
}

// pair_paths must hand out, path by path and in order, exactly what routing
// the two hosts directly would: the complete shortest-path set on a
// leaf-spine, the k-shortest table on a jellyfish.  Every ECMP pick, golden
// and CSV depends on that order.
TEST(CommonTest, PairPathsMatchHostLevelEnumeration) {
  const auto expect_same = [](BuiltFabric& built, const std::string& label) {
    const std::vector<int> hosts = host_nodes_of(built.graph);
    for (const int src : hosts) {
      for (const int dst : hosts) {
        if (src == dst) continue;
        const auto expected =
            built.jellyfish
                ? net::k_shortest_paths(built.graph, src, dst,
                                        static_cast<std::size_t>(built.k_paths))
                : net::all_shortest_paths(built.graph, src, dst);
        const auto& paths = pair_paths(built, src, dst);
        ASSERT_EQ(paths.size(), expected.size())
            << label << " pair " << src << "->" << dst;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(paths[i], expected[i])
              << label << " pair " << src << "->" << dst << " path " << i;
        }
      }
    }
  };
  for (const auto& [h, l, s] : {std::tuple{2, 2, 1}, std::tuple{4, 4, 2},
                                std::tuple{16, 8, 4}, std::tuple{16, 8, 16}}) {
    BuiltFabric built = plan_fabric(
        {.hosts_per_leaf = h, .num_leaves = l, .num_spines = s}, std::nullopt,
        0);
    expect_same(built, std::to_string(h) + "x" + std::to_string(l) + "x" +
                           std::to_string(s));
  }
  const net::JellyfishOptions jellyfish[] = {
      {.switches = 6, .ports = 3, .hosts = 8, .seed = 1},
      {.switches = 8, .ports = 3, .hosts = 16, .seed = 2},
      {.switches = 16, .ports = 4, .hosts = 32, .seed = 1}};
  for (const net::JellyfishOptions& jf : jellyfish) {
    for (const int k : {1, 4, 8, 16}) {
      BuiltFabric built = plan_fabric({}, jf, k);
      expect_same(built, "jellyfish:" + std::to_string(jf.switches) + "," +
                             std::to_string(jf.ports) + "," +
                             std::to_string(jf.hosts) + " k=" +
                             std::to_string(k));
    }
  }
}

TEST(CommonTest, PairPathsSameTorPairIsUplinkDownlinkAndSelfPairThrows) {
  BuiltFabric leaf_spine = plan_fabric(
      {.hosts_per_leaf = 4, .num_leaves = 4, .num_spines = 2}, std::nullopt,
      0);
  // Jellyfish hosts hang off switch i % switches: h0 and h8 share sw0.
  BuiltFabric jellyfish = plan_fabric(
      {}, net::JellyfishOptions{.switches = 8, .ports = 3, .hosts = 16,
                                .seed = 2},
      16);
  for (BuiltFabric* built : {&leaf_spine, &jellyfish}) {
    const std::vector<int> hosts = host_nodes_of(built->graph);
    const int a = hosts[0];
    const int b = hosts[built->jellyfish ? 8 : 1];
    ASSERT_EQ(built->graph.link_dst(built->graph.host_uplink(a)),
              built->graph.link_dst(built->graph.host_uplink(b)));
    const auto& paths = pair_paths(*built, a, b);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0],
              (std::vector<int>{
                  built->graph.host_uplink(a),
                  net::FabricGraph::reverse(built->graph.host_uplink(b))}));
    EXPECT_THROW(pair_paths(*built, a, a), std::invalid_argument);
  }
}

TEST(CommonTest, WindowRateComputesGoodput) {
  EXPECT_DOUBLE_EQ(window_rate_bps(0, 1250, sim::micros(1)), 10e9);
  EXPECT_THROW(window_rate_bps(0, 1, 0), std::invalid_argument);
}

TEST(ConfigTest, Table2RowsMatchPaperDefaults) {
  const auto rows = table2_rows();
  ASSERT_EQ(rows.size(), 11u);
  const std::string text = table2_text();
  EXPECT_NE(text.find("ewmaTime"), std::string::npos);
  EXPECT_NE(text.find("20 us"), std::string::npos);   // ewmaTime
  EXPECT_NE(text.find("30 us"), std::string::npos);   // price update interval
  EXPECT_NE(text.find("16 us"), std::string::npos);   // DGD/RCP intervals
  EXPECT_NE(text.find("4e-09"), std::string::npos);   // DGD a
  // RCP* gains: re-tuned to the classically stable values (Table 2's 3.6 /
  // 1.8 limit-cycle on this substrate; see EXPERIMENTS.md).
  EXPECT_NE(text.find("0.4"), std::string::npos);     // RCP a
  EXPECT_NE(text.find("0.226"), std::string::npos);   // RCP b
}

TEST(DynamicWorkloadTest, BdpBinsPartitionSizes) {
  const double bdp = 20'000;
  EXPECT_EQ(bdp_bin(1, bdp), 0);
  EXPECT_EQ(bdp_bin(5 * bdp, bdp), 0);
  EXPECT_EQ(bdp_bin(6 * bdp, bdp), 1);
  EXPECT_EQ(bdp_bin(50 * bdp, bdp), 2);
  EXPECT_EQ(bdp_bin(500 * bdp, bdp), 3);
  EXPECT_EQ(bdp_bin(5000 * bdp, bdp), 4);
  EXPECT_EQ(bdp_bin(20'000 * bdp, bdp), -1);
}

TEST(SemiDynamicTest, MiniScenarioMeasuresEvents) {
  SemiDynamicOptions options;
  options.scheme = transport::Scheme::kNumFabric;
  options.topology.hosts_per_leaf = 4;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 2;
  options.num_paths = 24;
  options.initial_active = 10;
  options.flows_per_event = 4;
  options.num_events = 2;
  options.min_active = 6;
  options.max_active = 14;
  options.convergence.timeout = sim::millis(20);
  options.seed = 3;
  const SemiDynamicResult result = run_semi_dynamic(options);
  EXPECT_EQ(result.events_measured, 2);
  EXPECT_GE(result.events_converged, 1);
  for (double time_us : result.convergence_times_us) {
    EXPECT_GT(time_us, 0);
    EXPECT_LT(time_us, 20'000);
  }
  EXPECT_EQ(result.total_queue_drops, 0u);
}

TEST(SemiDynamicTest, TraceModeRecordsSeries) {
  SemiDynamicOptions options;
  options.scheme = transport::Scheme::kDctcp;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.num_paths = 8;
  options.initial_active = 4;
  options.flows_per_event = 2;
  options.num_events = 2;
  options.min_active = 2;
  options.max_active = 6;
  options.record_trace = true;
  options.fixed_event_interval = sim::millis(2);
  options.use_maxmin_targets = true;
  options.seed = 4;
  const SemiDynamicResult result = run_semi_dynamic(options);
  EXPECT_GT(result.trace.size(), 100u);
  EXPECT_EQ(result.expected_steps.size(), 3u);  // initial + 2 events
  // Some trace samples show real throughput.
  double max_rate = 0;
  for (const auto& [t, rate] : result.trace) max_rate = std::max(max_rate, rate);
  EXPECT_GT(max_rate, 1e9);
}

// A stop event larger than the active set stops every slot but the traced
// one.  It used to stop the traced flow too and then draw from an empty
// active set ("Rng::index: empty range").
TEST(SemiDynamicTest, StopEventsNeverStopTheTracedFlow) {
  SemiDynamicOptions options;
  options.scheme = transport::Scheme::kDctcp;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.num_paths = 8;
  options.initial_active = 2;
  options.flows_per_event = 3;
  options.num_events = 3;
  options.min_active = 0;
  options.max_active = 3;  // 2 + 3 > 3: every event stops flows
  options.record_trace = true;
  options.fixed_event_interval = sim::millis(1);
  options.use_maxmin_targets = true;
  const SemiDynamicResult result = run_semi_dynamic(options);
  // The traced flow is active at every measurement: initial + 3 events.
  ASSERT_EQ(result.expected_steps.size(), 4u);
  for (const auto& [at_ms, rate] : result.expected_steps) {
    EXPECT_GT(rate, 0) << at_ms;
  }
}

// The first event stops the one untraced flow; the next two find only the
// traced flow active and stop nothing.  Such events still record the
// tracked flow's expected step, but must not count as measured events or
// add samples to the convergence-time CDF.
TEST(SemiDynamicTest, EventsThatChangeNoFlowAreNotMeasured) {
  SemiDynamicOptions options;
  options.scheme = transport::Scheme::kNumFabric;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.num_paths = 8;
  options.initial_active = 2;
  options.flows_per_event = 3;
  options.num_events = 3;
  options.min_active = 0;
  options.max_active = 3;  // 2 + 3 > 3: every event is a stop event
  const SemiDynamicResult result = run_semi_dynamic(options);
  EXPECT_EQ(result.events_measured, 1);
  EXPECT_LE(result.events_converged, 1);
  EXPECT_EQ(result.convergence_times_us.size(),
            static_cast<std::size_t>(result.events_converged));
  EXPECT_EQ(result.expected_steps.size(), 4u);  // initial + 3 events
}

TEST(TrafficExperimentTest, ParsePatternRoundTrips) {
  for (const TrafficPattern pattern :
       {TrafficPattern::kIncast, TrafficPattern::kPermutation,
        TrafficPattern::kAllToAll}) {
    EXPECT_EQ(parse_traffic_pattern(traffic_pattern_name(pattern)), pattern);
  }
  EXPECT_EQ(parse_traffic_pattern("shuffle"), TrafficPattern::kAllToAll);
  EXPECT_THROW(parse_traffic_pattern("ring"), std::invalid_argument);
}

TEST(TrafficExperimentTest, PermutationRateModeSaturatesNics) {
  TrafficOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 2;
  options.pattern = TrafficPattern::kPermutation;
  options.warmup = sim::millis(2);
  options.measure = sim::millis(3);
  const TrafficResult result = run_traffic_experiment(options);
  EXPECT_EQ(result.flow_count, 2);
  ASSERT_EQ(result.flow_rates_bps.size(), 2u);
  // Permutation traffic on a non-blocking fabric should approach NIC line
  // rate for every flow, with near-perfect fairness.
  EXPECT_GT(result.total_goodput_bps / result.optimal_bps, 0.9);
  EXPECT_GT(result.jain_index, 0.99);
  EXPECT_EQ(result.queue_drops, 0u);
}

TEST(TrafficExperimentTest, IncastFctModeCompletesBurst) {
  TrafficOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.pattern = TrafficPattern::kIncast;
  options.incast_fanin = 3;
  options.flow_size_bytes = 32'000;
  options.horizon = sim::millis(100);
  const TrafficResult result = run_traffic_experiment(options);
  EXPECT_EQ(result.flow_count, 3);
  EXPECT_EQ(result.completed, 3);
  EXPECT_EQ(result.incomplete, 0);
  ASSERT_EQ(result.fct_us.size(), 3u);
  // The receiver NIC serializes 3 x 32 KB: no flow can finish faster than
  // its own bytes at line rate, and the burst takes at least the aggregate.
  for (const double fct : result.fct_us) {
    EXPECT_GT(fct, 32'000 * 8.0 / 10e9 * 1e6);
    EXPECT_LT(fct, 100'000.0);
  }
}

// The core-tier price tracker reads NUMFabric's xWI prices from the control
// plane.  DGD keeps link prices too, but they are not tracked: its
// convergence time is NaN and its core rows report price 0.
TEST(OversubFabricTest, TracksCorePriceConvergenceForNumfabricOnly) {
  OversubFabricOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 2;
  options.topology = options.topology.with_oversubscription(4);

  const OversubFabricResult numfabric = run_oversub_fabric(options);
  EXPECT_TRUE(std::isfinite(numfabric.price_convergence_us));
  EXPECT_GE(numfabric.price_convergence_us, 0.0);
  double max_price = 0;
  for (const CoreLinkStats& row : numfabric.core_links) {
    max_price = std::max(max_price, row.price);
  }
  EXPECT_GT(max_price, 0.0);

  options.scheme = transport::Scheme::kDgd;
  const OversubFabricResult dgd = run_oversub_fabric(options);
  EXPECT_TRUE(std::isnan(dgd.price_convergence_us));
  ASSERT_EQ(dgd.core_links.size(), numfabric.core_links.size());
  for (const CoreLinkStats& row : dgd.core_links) {
    EXPECT_EQ(row.price, 0.0) << row.name;
  }
}

TEST(BwFuncSweepTest, SinglePointMatchesExpectation) {
  BwFuncSweepOptions options;
  options.capacities_gbps = {25};
  options.warmup = sim::millis(6);
  options.measure = sim::millis(6);
  const BwFuncSweepResult result = run_bwfunc_sweep(options);
  ASSERT_EQ(result.rows.size(), 1u);
  const auto& row = result.rows[0];
  EXPECT_NEAR(row.expected1_gbps, 15.0, 0.1);
  EXPECT_NEAR(row.expected2_gbps, 10.0, 0.1);
  EXPECT_NEAR(row.flow1_gbps, row.expected1_gbps, 2.0);
  EXPECT_NEAR(row.flow2_gbps, row.expected2_gbps, 2.0);
}

}  // namespace
}  // namespace numfabric::exp
