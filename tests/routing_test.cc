// Path enumeration (no-silent-cap contract) and ECMP selection
// (deterministic, unbiased spread).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace numfabric::net {
namespace {

/// Host -- swA -- (n parallel cables) -- swB -- host: exactly n shortest
/// paths between the two hosts, middle links in creation order.
struct ParallelFabric {
  Topology* topo;
  Host* src;
  Host* dst;
  std::vector<Link*> cables;  // swA -> swB direction
};

ParallelFabric build_parallel(Topology& topo, int cables) {
  ParallelFabric fabric;
  fabric.topo = &topo;
  fabric.src = topo.add_host("src");
  fabric.dst = topo.add_host("dst");
  Switch* a = topo.add_switch("swA");
  Switch* b = topo.add_switch("swB");
  topo.connect(fabric.src, a, 10e9, sim::micros(1), drop_tail_factory());
  topo.connect(b, fabric.dst, 10e9, sim::micros(1), drop_tail_factory());
  for (int i = 0; i < cables; ++i) {
    fabric.cables.push_back(
        topo.connect(a, b, 40e9, sim::micros(1), drop_tail_factory()).first);
  }
  return fabric;
}

TEST(RoutingTest, EnumeratesWideFabricsWithoutSilentCap) {
  // 100 parallel cables exceed the old silent cap of 64; every path must
  // come back, in creation order.
  sim::Simulator sim;
  Topology topo(sim);
  const ParallelFabric fabric = build_parallel(topo, 100);
  const auto paths = all_shortest_paths(topo, fabric.src, fabric.dst);
  ASSERT_EQ(paths.size(), 100u);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_EQ(paths[i].links.size(), 3u);
    EXPECT_EQ(paths[i].links[1], fabric.cables[i]);
  }
}

TEST(RoutingTest, ThrowsPastEnumerationLimitInsteadOfTruncating) {
  // Two stages of 70 parallel cables: 4900 shortest paths > the 4096 limit.
  sim::Simulator sim;
  Topology topo(sim);
  Host* src = topo.add_host("src");
  Host* dst = topo.add_host("dst");
  Switch* a = topo.add_switch("a");
  Switch* b = topo.add_switch("b");
  Switch* c = topo.add_switch("c");
  topo.connect(src, a, 10e9, sim::micros(1), drop_tail_factory());
  topo.connect(c, dst, 10e9, sim::micros(1), drop_tail_factory());
  for (int i = 0; i < 70; ++i) {
    topo.connect(a, b, 10e9, sim::micros(1), drop_tail_factory());
    topo.connect(b, c, 10e9, sim::micros(1), drop_tail_factory());
  }
  EXPECT_THROW(all_shortest_paths(topo, src, dst), std::length_error);
}

TEST(RoutingTest, EcmpSpreadsSequentialFlowIdsOver16Spines) {
  // The regression this guards: `hash % 16` keeps only the low bits and,
  // for non-power-of-two sets, adds modulo bias.  Sequential flow ids must
  // land near-uniformly across a 16-spine fabric's path set.
  sim::Simulator sim;
  Topology topo(sim);
  const MaterializedFabric mat = topo.materialize(
      make_leaf_spine({.hosts_per_leaf = 1, .num_leaves = 2, .num_spines = 16}),
      drop_tail_factory());
  const auto paths = all_shortest_paths(topo, mat.hosts[0], mat.hosts[1]);
  ASSERT_EQ(paths.size(), 16u);

  constexpr int kFlows = 4096;
  std::map<std::size_t, int> counts;
  for (FlowId flow = 1; flow <= kFlows; ++flow) {
    ++counts[ecmp_index(paths.size(), flow)];
  }
  ASSERT_EQ(counts.size(), 16u) << "some spine never picked";
  const int expected = kFlows / 16;  // 256
  for (const auto& [path, count] : counts) {
    EXPECT_GT(count, expected * 3 / 4) << "path underloaded";
    EXPECT_LT(count, expected * 5 / 4) << "path overloaded";
  }
}

TEST(RoutingTest, EcmpAvoidsModuloBiasOnOddSetSizes) {
  // 5 paths: a modulo reduction of a 64-bit hash is biased toward the first
  // (2^64 mod 5) residues; multiply-shift must keep every path within a few
  // percent of uniform for sequential ids.
  sim::Simulator sim;
  Topology topo(sim);
  const ParallelFabric fabric = build_parallel(topo, 5);
  const auto paths = all_shortest_paths(topo, fabric.src, fabric.dst);
  ASSERT_EQ(paths.size(), 5u);
  std::map<std::size_t, int> counts;
  constexpr int kFlows = 5000;
  for (FlowId flow = 1; flow <= kFlows; ++flow) {
    ++counts[ecmp_index(paths.size(), flow)];
  }
  ASSERT_EQ(counts.size(), 5u);
  for (const auto& [path, count] : counts) {
    EXPECT_GT(count, 850);
    EXPECT_LT(count, 1150);
  }
  // Deterministic across calls.
  EXPECT_EQ(ecmp_index(paths.size(), 12345), ecmp_index(paths.size(), 12345));
}

// ---------------------------------------------------------------------------
// Graph routing: link-id path sets over a FabricGraph.
// ---------------------------------------------------------------------------

/// True when `path` is a valid simple src->dst walk on `graph`.
bool valid_simple_path(const FabricGraph& graph, const std::vector<int>& path,
                       int src, int dst) {
  if (path.empty()) return false;
  if (graph.link_src(path.front()) != src) return false;
  if (graph.link_dst(path.back()) != dst) return false;
  std::set<int> visited = {src};
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0 && graph.link_src(path[i]) != graph.link_dst(path[i - 1])) {
      return false;
    }
    if (!visited.insert(graph.link_dst(path[i])).second) return false;
  }
  return true;
}

TEST(GraphRoutingTest, GraphEnumerationMatchesObjectEnumeration) {
  // The same leaf-spine, enumerated on the graph and on the materialized
  // topology: identical path sets, with graph link ids equal to the links'
  // dense Topology::links() indices.
  const LeafSpineOptions options{.hosts_per_leaf = 2,
                                 .num_leaves = 2,
                                 .num_spines = 4};
  const FabricGraph graph = make_leaf_spine(options);
  sim::Simulator sim;
  Topology topo(sim);
  const MaterializedFabric mat = topo.materialize(graph, drop_tail_factory());

  // Host 0 (leaf 0) to the last host (leaf 1): cross-leaf, one path per spine.
  const int src = 0;
  const int dst_host = graph.num_hosts() - 1;
  int seen = -1, src_node = -1, dst_node = -1;
  for (int n = 0; n < graph.num_nodes(); ++n) {
    if (graph.nodes()[static_cast<std::size_t>(n)].kind !=
        GraphNodeKind::kHost) {
      continue;
    }
    ++seen;
    if (seen == src) src_node = n;
    if (seen == dst_host) dst_node = n;
  }
  const auto graph_paths = all_shortest_paths(graph, src_node, dst_node);
  const auto object_paths = all_shortest_paths(
      topo, mat.hosts[static_cast<std::size_t>(src)],
      mat.hosts[static_cast<std::size_t>(dst_host)]);
  ASSERT_EQ(graph_paths.size(), 4u);
  ASSERT_EQ(object_paths.size(), graph_paths.size());
  for (std::size_t p = 0; p < graph_paths.size(); ++p) {
    ASSERT_EQ(object_paths[p].links.size(), graph_paths[p].size());
    for (std::size_t l = 0; l < graph_paths[p].size(); ++l) {
      EXPECT_EQ(object_paths[p].links[l],
                mat.links[static_cast<std::size_t>(graph_paths[p][l])]);
    }
  }
}

TEST(GraphRoutingTest, KShortestCoversEqualCostClassThenLengthens) {
  // On a 4-spine leaf-spine a cross-leaf pair has exactly 4 shortest paths;
  // k = 4 must return that class (same set as all_shortest_paths) and a
  // larger k appends strictly longer loop-free paths.  Three leaves so that
  // longer detours (src leaf -> spine -> third leaf -> spine -> dst leaf)
  // exist at all.
  const FabricGraph graph = make_leaf_spine(
      {.hosts_per_leaf = 2, .num_leaves = 3, .num_spines = 4});
  const int src = 7;  // first host node (3 leaves + 4 spines precede hosts)
  const int dst = graph.num_nodes() - 1;
  ASSERT_EQ(graph.nodes()[static_cast<std::size_t>(src)].kind,
            GraphNodeKind::kHost);

  const auto shortest = all_shortest_paths(graph, src, dst);
  const auto k4 = k_shortest_paths(graph, src, dst, 4);
  EXPECT_EQ(k4, shortest);

  const auto k8 = k_shortest_paths(graph, src, dst, 8);
  ASSERT_EQ(k8.size(), 8u);
  for (std::size_t p = 0; p < k8.size(); ++p) {
    EXPECT_TRUE(valid_simple_path(graph, k8[p], src, dst)) << p;
    if (p > 0) {
      EXPECT_GE(k8[p].size(), k8[p - 1].size()) << p;
    }
  }
  EXPECT_GT(k8.back().size(), k8.front().size());
  // No duplicates.
  std::set<std::vector<int>> unique(k8.begin(), k8.end());
  EXPECT_EQ(unique.size(), k8.size());
}

TEST(GraphRoutingTest, KShortestIsDeterministicOnJellyfish) {
  const FabricGraph graph =
      make_jellyfish({.switches = 10, .ports = 3, .hosts = 10, .seed = 3});
  // First host node follows the 10 switches.
  const int src = 10;
  const int dst = graph.num_nodes() - 1;
  const auto first = k_shortest_paths(graph, src, dst, 8);
  const auto second = k_shortest_paths(graph, src, dst, 8);
  EXPECT_EQ(first, second);
  ASSERT_FALSE(first.empty());
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_TRUE(valid_simple_path(graph, first[p], src, dst)) << p;
  }
}

TEST(GraphRoutingTest, KShortestReturnsFewerWhenExhausted) {
  // Host - switch - host: exactly one loop-free path regardless of k.
  FabricGraph graph;
  const int a = graph.add_host("a");
  const int sw = graph.add_switch("sw");
  const int b = graph.add_host("b");
  graph.add_cable(a, sw, 10e9, sim::micros(1));
  graph.add_cable(sw, b, 10e9, sim::micros(1));
  const auto paths = k_shortest_paths(graph, a, b, 16);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<int>{0, 2}));
}

TEST(GraphRoutingTest, KShortestContractViolationsThrow) {
  const FabricGraph graph = make_leaf_spine(
      {.hosts_per_leaf = 2, .num_leaves = 2, .num_spines = 2});
  EXPECT_THROW(k_shortest_paths(graph, 4, 4, 2), std::invalid_argument);
  EXPECT_THROW(k_shortest_paths(graph, 4, 5, 0), std::invalid_argument);
  // No silent clamping: a request past the enumeration cap throws instead of
  // quietly returning kMaxEnumeratedPaths results.
  EXPECT_THROW(k_shortest_paths(graph, 4, 5, kMaxEnumeratedPaths + 1),
               std::length_error);
}

TEST(GraphRoutingTest, ThrowsPastEnumerationLimitInsteadOfTruncating) {
  // The graph twin of the object-side case: two stages of 70 parallel
  // cables give 4900 shortest paths > kMaxEnumeratedPaths, and the error
  // names the set size and the limit.
  FabricGraph graph;
  const int src = graph.add_host("src");
  const int dst = graph.add_host("dst");
  const int a = graph.add_switch("a");
  const int b = graph.add_switch("b");
  const int c = graph.add_switch("c");
  graph.add_cable(src, a, 10e9, sim::micros(1));
  graph.add_cable(c, dst, 10e9, sim::micros(1));
  for (int i = 0; i < 70; ++i) {
    graph.add_cable(a, b, 10e9, sim::micros(1));
    graph.add_cable(b, c, 10e9, sim::micros(1));
  }
  try {
    all_shortest_paths(graph, src, dst);
    ADD_FAILURE() << "4900 paths enumerated past the limit";
  } catch (const std::length_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("4900"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kMaxEnumeratedPaths)), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace numfabric::net
