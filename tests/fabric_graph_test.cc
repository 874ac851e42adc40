// FabricGraph model: builder validation, link numbering, materialize
// correspondence, the jellyfish builder's determinism/regularity, the shard
// planner's structural obstacle detection, and the experiment layer's loud
// --shards rejection on non-shardable fabrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "exp/traffic_experiment.h"
#include "net/fabric_graph.h"
#include "net/shard_plan.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace numfabric::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(FabricGraphTest, LinkNumberingAndAccessors) {
  FabricGraph graph;
  const int h0 = graph.add_host("h0");
  const int sw = graph.add_switch("sw0");
  const int h1 = graph.add_host("h1");
  const int c0 = graph.add_cable(h0, sw, 10e9, sim::micros(2));
  const int c1 = graph.add_cable(sw, h1, 10e9, sim::micros(3));

  EXPECT_EQ(graph.num_nodes(), 3);
  EXPECT_EQ(graph.num_hosts(), 2);
  EXPECT_EQ(graph.num_switches(), 1);
  EXPECT_EQ(graph.num_cables(), 2);
  EXPECT_EQ(graph.num_links(), 4);

  // Cable c -> links 2c (a->b) and 2c+1 (b->a); reverse flips the low bit.
  EXPECT_EQ(graph.link_src(2 * c0), h0);
  EXPECT_EQ(graph.link_dst(2 * c0), sw);
  EXPECT_EQ(graph.link_src(2 * c0 + 1), sw);
  EXPECT_EQ(graph.link_dst(2 * c0 + 1), h0);
  EXPECT_EQ(FabricGraph::reverse(2 * c1), 2 * c1 + 1);
  EXPECT_EQ(FabricGraph::reverse(2 * c1 + 1), 2 * c1);
  EXPECT_EQ(graph.link_delay(2 * c1), sim::micros(3));
  EXPECT_EQ(graph.link_rate_bps(3), 10e9);

  EXPECT_EQ(graph.host_uplink(h0), 0);
  EXPECT_EQ(graph.host_uplink(h1), 3);
  EXPECT_THROW(graph.host_uplink(sw), std::logic_error);

  // Outgoing links come back in cable-insertion order.
  const auto out = graph.outgoing(sw);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 2 * c0 + 1);
  EXPECT_EQ(out[1], 2 * c1);
}

TEST(FabricGraphTest, CableValidation) {
  FabricGraph graph;
  const int a = graph.add_host("a");
  const int b = graph.add_host("b");
  EXPECT_THROW(graph.add_cable(a, a, 10e9, 0), std::invalid_argument);
  EXPECT_THROW(graph.add_cable(a, 99, 10e9, 0), std::invalid_argument);
  EXPECT_THROW(graph.add_cable(a, b, 0, 0), std::invalid_argument);
  EXPECT_THROW(graph.add_cable(a, b, kInf, 0), std::invalid_argument);
  EXPECT_THROW(graph.add_cable(a, b, kNaN, 0), std::invalid_argument);
  EXPECT_THROW(graph.add_cable(a, b, 10e9, -1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// materialize: the object topology is the graph, index for index.
// ---------------------------------------------------------------------------

TEST(FabricGraphTest, MaterializeMirrorsGraphIndexing) {
  const LeafSpineOptions options{.hosts_per_leaf = 2,
                                 .num_leaves = 3,
                                 .num_spines = 2};
  const FabricGraph graph = make_leaf_spine(options);
  sim::Simulator sim;
  Topology topo(sim);
  const MaterializedFabric mat = topo.materialize(graph, drop_tail_factory());

  ASSERT_EQ(mat.nodes.size(), static_cast<std::size_t>(graph.num_nodes()));
  ASSERT_EQ(mat.links.size(), static_cast<std::size_t>(graph.num_links()));
  EXPECT_EQ(mat.hosts.size(), static_cast<std::size_t>(graph.num_hosts()));
  EXPECT_EQ(mat.switches.size(),
            static_cast<std::size_t>(graph.num_switches()));

  // Node n materializes under the graph's name; link l connects the
  // materialized endpoints of graph link l and is also the dense position l
  // in Topology::links() (the property every path table relies on).
  for (int n = 0; n < graph.num_nodes(); ++n) {
    EXPECT_EQ(mat.nodes[static_cast<std::size_t>(n)]->name(),
              graph.nodes()[static_cast<std::size_t>(n)].name);
  }
  for (int l = 0; l < graph.num_links(); ++l) {
    const Link* link = mat.links[static_cast<std::size_t>(l)];
    EXPECT_EQ(link, topo.links()[static_cast<std::size_t>(l)].get());
    EXPECT_EQ(link->dst(),
              mat.nodes[static_cast<std::size_t>(graph.link_dst(l))]);
    // The twin is the reverse direction of the same cable, so its delivery
    // target is this link's graph source.
    EXPECT_EQ(link->twin(),
              mat.links[static_cast<std::size_t>(FabricGraph::reverse(l))]);
    EXPECT_EQ(link->twin()->dst(),
              mat.nodes[static_cast<std::size_t>(graph.link_src(l))]);
    EXPECT_EQ(link->rate_bps(), graph.link_rate_bps(l));
  }
}

TEST(FabricGraphTest, LeafSpineBaseRttMatchesCrossLeafFormula) {
  // The leaf-spine cross-leaf RTT formula and the graph-general base_rtt
  // agree on any multi-leaf leaf-spine, symmetric core delay or not.
  LeafSpineOptions options{.hosts_per_leaf = 2,
                           .num_leaves = 3,
                           .num_spines = 2};
  EXPECT_EQ(base_rtt(make_leaf_spine(options)),
            leaf_spine_cross_rtt(options));
  options.core_link_delay = sim::micros(5);
  EXPECT_EQ(base_rtt(make_leaf_spine(options)),
            leaf_spine_cross_rtt(options));
}

TEST(FabricGraphTest, LeafSpineRejectsInfiniteOrVanishingRates) {
  for (const double bad : {0.0, -1e9, kInf, kNaN}) {
    EXPECT_THROW(make_leaf_spine({.host_rate_bps = bad}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(make_leaf_spine({.spine_rate_bps = bad}),
                 std::invalid_argument)
        << bad;
  }
  // Finite and positive, but one packet's serialization outlasts the
  // nanosecond clock: the base-RTT computation names the overflow.
  const FabricGraph slow = make_leaf_spine({.host_rate_bps = 1e-6});
  EXPECT_THROW(base_rtt(slow), std::overflow_error);
}

// ---------------------------------------------------------------------------
// Jellyfish builder.
// ---------------------------------------------------------------------------

std::vector<std::pair<int, int>> switch_edges(const FabricGraph& graph) {
  std::vector<std::pair<int, int>> edges;
  for (const GraphCable& cable : graph.cables()) {
    const auto& nodes = graph.nodes();
    if (nodes[static_cast<std::size_t>(cable.a)].kind ==
            GraphNodeKind::kSwitch &&
        nodes[static_cast<std::size_t>(cable.b)].kind ==
            GraphNodeKind::kSwitch) {
      edges.emplace_back(cable.a, cable.b);
    }
  }
  return edges;
}

TEST(JellyfishTest, DeterministicRegularAndRoundRobin) {
  const JellyfishOptions options{.switches = 12, .ports = 4, .hosts = 24,
                                 .seed = 7};
  const FabricGraph graph = make_jellyfish(options);
  EXPECT_EQ(graph.num_hosts(), 24);
  EXPECT_EQ(graph.num_switches(), 12);

  // Hosts round-robin across switches: host i hangs off switch i % 12.
  for (int h = 0; h < options.hosts; ++h) {
    int host_node = -1, count = 0;
    for (int n = 0; n < graph.num_nodes(); ++n) {
      if (graph.nodes()[static_cast<std::size_t>(n)].kind ==
          GraphNodeKind::kHost) {
        if (count == h) { host_node = n; break; }
        ++count;
      }
    }
    ASSERT_GE(host_node, 0);
    const int up = graph.host_uplink(host_node);
    EXPECT_EQ(graph.nodes()[static_cast<std::size_t>(graph.link_dst(up))].name,
              "sw" + std::to_string(h % options.switches));
  }

  // r-regular switch subgraph: every switch has exactly `ports` switch-switch
  // cables (12 * 4 is even, so a perfect regular wiring exists).
  std::vector<int> degree(static_cast<std::size_t>(graph.num_nodes()), 0);
  for (const auto& [a, b] : switch_edges(graph)) {
    ++degree[static_cast<std::size_t>(a)];
    ++degree[static_cast<std::size_t>(b)];
  }
  for (int n = 0; n < graph.num_nodes(); ++n) {
    if (graph.nodes()[static_cast<std::size_t>(n)].kind ==
        GraphNodeKind::kSwitch) {
      EXPECT_EQ(degree[static_cast<std::size_t>(n)], options.ports)
          << graph.nodes()[static_cast<std::size_t>(n)].name;
    }
  }

  // Identical options -> identical wiring (bit-for-bit); a different seed
  // rewires (vanishingly unlikely to collide on 12 switches x 4 ports).
  const FabricGraph again = make_jellyfish(options);
  ASSERT_EQ(switch_edges(graph), switch_edges(again));
  JellyfishOptions other = options;
  other.seed = 8;
  EXPECT_NE(switch_edges(graph), switch_edges(make_jellyfish(other)));
}

TEST(JellyfishTest, EverySwitchIsTierOne) {
  const FabricGraph graph = make_jellyfish({.switches = 6, .ports = 3,
                                            .hosts = 6, .seed = 1});
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == GraphNodeKind::kSwitch) {
      EXPECT_EQ(node.tier, 1);
    }
  }
}

TEST(JellyfishTest, RejectsInfeasibleParameters) {
  EXPECT_THROW(make_jellyfish({.switches = 2, .ports = 2, .hosts = 4}),
               std::invalid_argument);
  EXPECT_THROW(make_jellyfish({.switches = 8, .ports = 1, .hosts = 4}),
               std::invalid_argument);
  EXPECT_THROW(make_jellyfish({.switches = 8, .ports = 8, .hosts = 4}),
               std::invalid_argument);
  EXPECT_THROW(make_jellyfish({.switches = 8, .ports = 2, .hosts = 1}),
               std::invalid_argument);
  EXPECT_THROW(
      make_jellyfish({.switches = 8, .ports = 2, .hosts = 4,
                      .host_rate_bps = 0}),
      std::invalid_argument);
  for (const double bad : {kInf, kNaN}) {
    EXPECT_THROW(make_jellyfish({.switches = 8, .ports = 2, .hosts = 4,
                                 .host_rate_bps = bad}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(make_jellyfish({.switches = 8, .ports = 2, .hosts = 4,
                                 .switch_rate_bps = bad}),
                 std::invalid_argument)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Shard planner: structural obstacle detection.
// ---------------------------------------------------------------------------

TEST(ShardObstacleTest, LeafSpineIsShardableJellyfishIsNot) {
  EXPECT_EQ(shard_partition_obstacle(make_leaf_spine(
                {.hosts_per_leaf = 2, .num_leaves = 2, .num_spines = 2})),
            "");

  const std::string obstacle = shard_partition_obstacle(
      make_jellyfish({.switches = 6, .ports = 3, .hosts = 6, .seed = 1}));
  EXPECT_NE(obstacle, "");
  // The explanation names the structural problem and the remedy.
  EXPECT_NE(obstacle.find("tier"), std::string::npos) << obstacle;
  EXPECT_NE(obstacle.find("--shards=1"), std::string::npos) << obstacle;
}

TEST(ShardObstacleTest, BuildShardPlanThrowsTheObstacle) {
  const FabricGraph graph =
      make_jellyfish({.switches = 6, .ports = 3, .hosts = 6, .seed = 1});
  sim::Simulator sim;
  Topology topo(sim);
  const MaterializedFabric mat = topo.materialize(graph, drop_tail_factory());
  EXPECT_THROW(build_shard_plan(graph, mat, 2), std::invalid_argument);
}

TEST(ShardObstacleTest, PlanLookaheadIsMinimumCoreDelay) {
  const LeafSpineOptions options{.hosts_per_leaf = 2,
                                 .num_leaves = 4,
                                 .num_spines = 2,
                                 .link_delay = sim::micros(2),
                                 .core_link_delay = sim::micros(5)};
  const FabricGraph graph = make_leaf_spine(options);
  sim::Simulator sim;
  Topology topo(sim);
  const MaterializedFabric mat = topo.materialize(graph, drop_tail_factory());
  const ShardPlan plan = build_shard_plan(graph, mat, 2);
  EXPECT_EQ(plan.shards, 2);
  EXPECT_EQ(plan.lookahead, sim::micros(5));
  // Leaf-major blocks: leaves 0,1 -> shard 0; leaves 2,3 -> shard 1.
  EXPECT_EQ(plan.shard_of(mat.switches[0]), 0);
  EXPECT_EQ(plan.shard_of(mat.switches[3]), 1);
  EXPECT_THROW(build_shard_plan(graph, mat, 5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Experiment layer: --shards on a non-shardable fabric fails loudly.
// ---------------------------------------------------------------------------

TEST(ShardObstacleTest, TrafficExperimentRejectsShardsOnJellyfish) {
  exp::TrafficOptions options;
  options.jellyfish =
      JellyfishOptions{.switches = 6, .ports = 3, .hosts = 6, .seed = 1};
  options.pattern = exp::TrafficPattern::kPermutation;
  options.flow_size_bytes = 10'000;
  options.shards = 2;
  try {
    exp::run_traffic_experiment(options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--shards=2"), std::string::npos) << what;
    EXPECT_NE(what.find("not available"), std::string::npos) << what;
    EXPECT_NE(what.find("--shards=1"), std::string::npos) << what;
  }

  // shards=1 (serial) runs fine on the same fabric.
  options.shards = 1;
  const exp::TrafficResult result = exp::run_traffic_experiment(options);
  EXPECT_EQ(result.completed, result.flow_count);
}

}  // namespace
}  // namespace numfabric::net
