// Topology builders and path enumeration.
#include <gtest/gtest.h>

#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace numfabric::net {
namespace {

TEST(TopologyTest, ConnectCreatesTwinLinks) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  auto [fwd, back] = topo.connect(a, b, 10e9, sim::micros(1), drop_tail_factory());
  EXPECT_EQ(fwd->twin(), back);
  EXPECT_EQ(back->twin(), fwd);
  EXPECT_EQ(fwd->dst(), b);
  EXPECT_EQ(back->dst(), a);
  EXPECT_EQ(topo.outgoing(a).size(), 1u);
  EXPECT_EQ(topo.outgoing(b).size(), 1u);
}

TEST(TopologyTest, LeafSpineShapeAndEcmpPaths) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpineOptions options;
  options.hosts_per_leaf = 4;
  options.num_leaves = 3;
  options.num_spines = 2;
  const MaterializedFabric ls =
      topo.materialize(make_leaf_spine(options), drop_tail_factory());
  EXPECT_EQ(ls.hosts.size(), 12u);
  EXPECT_EQ(ls.switches.size(), 3u + 2u);  // leaves, then spines
  EXPECT_EQ(ls.switches[2]->name(), "leaf2");
  EXPECT_EQ(ls.switches[3]->name(), "spine0");
  // Links: 12 host links + 3*2 leaf-spine cables, both directions.
  EXPECT_EQ(topo.links().size(), 2u * (12 + 6));

  // Cross-leaf: one path per spine.
  const auto cross = all_shortest_paths(topo, ls.hosts[0], ls.hosts[4]);
  EXPECT_EQ(cross.size(), 2u);
  for (const Path& path : cross) EXPECT_EQ(path.links.size(), 4u);

  // Same-leaf: a single 2-hop path through the shared leaf.
  const auto local = all_shortest_paths(topo, ls.hosts[0], ls.hosts[1]);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0].links.size(), 2u);
}

TEST(TopologyTest, ReversePathUsesTwins) {
  sim::Simulator sim;
  Topology topo(sim);
  const MaterializedFabric ls = topo.materialize(
      make_leaf_spine({.hosts_per_leaf = 2, .num_leaves = 2, .num_spines = 2}),
      drop_tail_factory());
  const auto paths = all_shortest_paths(topo, ls.hosts[0], ls.hosts[2]);
  ASSERT_FALSE(paths.empty());
  const Path reverse = reverse_path(paths[0]);
  ASSERT_EQ(reverse.links.size(), paths[0].links.size());
  for (std::size_t i = 0; i < reverse.links.size(); ++i) {
    EXPECT_EQ(reverse.links[i],
              paths[0].links[paths[0].links.size() - 1 - i]->twin());
  }
}

TEST(TopologyTest, EcmpIndexDeterministicAndCovering) {
  sim::Simulator sim;
  Topology topo(sim);
  const MaterializedFabric ls = topo.materialize(
      make_leaf_spine({.hosts_per_leaf = 2, .num_leaves = 2, .num_spines = 4}),
      drop_tail_factory());
  const auto paths = all_shortest_paths(topo, ls.hosts[0], ls.hosts[2]);
  ASSERT_EQ(paths.size(), 4u);
  // Deterministic...
  EXPECT_EQ(ecmp_index(paths.size(), 17), ecmp_index(paths.size(), 17));
  // ...and spreading across paths.
  std::set<std::size_t> chosen;
  for (FlowId flow = 0; flow < 64; ++flow) {
    chosen.insert(ecmp_index(paths.size(), flow));
  }
  EXPECT_EQ(chosen.size(), 4u);
}

TEST(TopologyTest, DumbbellSharesOneBottleneck) {
  sim::Simulator sim;
  Topology topo(sim);
  const Dumbbell db =
      build_dumbbell(topo, 3, 40e9, 10e9, sim::micros(1), drop_tail_factory());
  for (int i = 0; i < 3; ++i) {
    const auto paths = all_shortest_paths(topo, db.senders[static_cast<std::size_t>(i)],
                                          db.receivers[static_cast<std::size_t>(i)]);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].links.size(), 3u);
    EXPECT_EQ(paths[0].links[1], db.bottleneck);
  }
}

TEST(TopologyTest, ParkingLotChain) {
  sim::Simulator sim;
  Topology topo(sim);
  const ParkingLot lot =
      build_parking_lot(topo, 3, 10e9, sim::micros(1), drop_tail_factory());
  ASSERT_EQ(lot.backbone.size(), 3u);
  // Long path (host 0 -> host 3) crosses all backbone links.
  const auto long_paths = all_shortest_paths(topo, lot.hosts[0], lot.hosts[3]);
  ASSERT_EQ(long_paths.size(), 1u);
  EXPECT_EQ(long_paths[0].links.size(), 5u);  // uplink + 3 backbone + downlink
}

TEST(TopologyTest, Fig10ThreeParallelLinks) {
  sim::Simulator sim;
  Topology topo(sim);
  const Fig10Topology fig = build_fig10(topo, 5e9, sim::micros(1),
                                        drop_tail_factory());
  EXPECT_DOUBLE_EQ(fig.top->rate_bps(), 5e9);
  EXPECT_DOUBLE_EQ(fig.middle->rate_bps(), 5e9);
  EXPECT_DOUBLE_EQ(fig.bottom->rate_bps(), 3e9);
  // Three equal-hop paths src1 -> dst1 via top/middle/bottom.
  const auto paths = all_shortest_paths(topo, fig.src1, fig.dst1);
  EXPECT_EQ(paths.size(), 3u);
}

TEST(TopologyTest, UnreachableAndDegenerateQueries) {
  sim::Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host("a");
  Host* b = topo.add_host("b");
  EXPECT_TRUE(all_shortest_paths(topo, a, b).empty());
  EXPECT_THROW(all_shortest_paths(topo, a, a), std::invalid_argument);
  EXPECT_THROW(ecmp_index(0, 1), std::invalid_argument);
}

TEST(TopologyTest, CrossLeafRttMatchesPaper) {
  // The paper's topology: 2 us/hop gives a 16 us propagation RTT; the
  // formula adds serialization on top.
  const sim::TimeNs rtt = leaf_spine_cross_rtt(LeafSpineOptions{});
  EXPECT_GE(rtt, sim::micros(16));
  EXPECT_LE(rtt, sim::micros(25));
}

TEST(TopologyTest, CrossLeafRttChargesEachHopAtItsOwnRate) {
  LeafSpineOptions options;  // 10G edge, 40G core, 2 us per hop
  // Exact per-hop accounting: 2 edge hops at 10G + 2 core hops at 40G each
  // way, data + ACK.  The old edge-rate-everywhere formula gave 20928 ns.
  const auto hop = [](sim::TimeNs delay, std::uint32_t bytes, double rate) {
    return delay + sim::transmission_time(bytes, rate);
  };
  const sim::TimeNs expected =
      2 * (hop(sim::micros(2), kDataPacketBytes, 10e9) +
           hop(sim::micros(2), kAckPacketBytes, 10e9)) +
      2 * (hop(sim::micros(2), kDataPacketBytes, 40e9) +
           hop(sim::micros(2), kAckPacketBytes, 40e9));
  EXPECT_EQ(leaf_spine_cross_rtt(options), expected);
  EXPECT_EQ(leaf_spine_cross_rtt(options), 19080);
}

TEST(TopologyTest, OversubscriptionModel) {
  LeafSpineOptions options;
  options.hosts_per_leaf = 8;
  options.host_rate_bps = 10e9;
  options.num_spines = 2;
  options.spine_rate_bps = 40e9;
  EXPECT_DOUBLE_EQ(options.oversubscription(), 1.0);  // 80G demand, 80G core

  const LeafSpineOptions contended = options.with_oversubscription(4.0);
  EXPECT_DOUBLE_EQ(contended.oversubscription(), 4.0);
  EXPECT_DOUBLE_EQ(contended.spine_rate_bps, 10e9);
  // Host side untouched.
  EXPECT_DOUBLE_EQ(contended.host_rate_bps, 10e9);
  EXPECT_EQ(contended.num_spines, 2);
  EXPECT_THROW(options.with_oversubscription(0), std::invalid_argument);

  // The builder applies the derived rate to every core link, and path
  // diversity is unchanged by the re-rating.
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpineOptions shape = contended;
  shape.num_leaves = 3;
  shape.hosts_per_leaf = 2;
  const FabricGraph graph = make_leaf_spine(shape);
  const MaterializedFabric ls = topo.materialize(graph, drop_tail_factory());
  int core_links = 0;
  for (int l = 0; l < graph.num_links(); ++l) {
    if (graph.nodes()[static_cast<std::size_t>(graph.link_src(l))].tier > 0 &&
        graph.nodes()[static_cast<std::size_t>(graph.link_dst(l))].tier > 0) {
      EXPECT_DOUBLE_EQ(ls.links[static_cast<std::size_t>(l)]->rate_bps(), 10e9);
      ++core_links;
    }
  }
  EXPECT_EQ(core_links, 2 * 3 * 2);
  EXPECT_EQ(all_shortest_paths(topo, ls.hosts[0], ls.hosts[2]).size(), 2u);
}

TEST(TopologyTest, AsymmetricCoreDelayAndPerTierBuffers) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpineOptions options;
  options.hosts_per_leaf = 2;
  options.num_leaves = 2;
  options.num_spines = 2;
  options.core_link_delay = sim::micros(5);
  topo.materialize(make_leaf_spine(options), drop_tail_factory(1000),
                   drop_tail_factory(9000));
  // Core links get the core factory's deeper buffers and the longer delay;
  // edge links keep the edge factory's.
  int edge_links = 0, core_links = 0;
  for (const auto& link : topo.links()) {
    if (link->queue().capacity_bytes() == 1000u) {
      EXPECT_EQ(link->delay(), sim::micros(2));
      ++edge_links;
    } else {
      EXPECT_EQ(link->queue().capacity_bytes(), 9000u);
      EXPECT_EQ(link->delay(), sim::micros(5));
      ++core_links;
    }
  }
  EXPECT_EQ(edge_links, 2 * 4);  // one cable per host, both directions
  EXPECT_EQ(core_links, 2 * 2 * 2);

  // RTT picks up the asymmetric core delay exactly.
  const auto hop = [](sim::TimeNs delay, std::uint32_t bytes, double rate) {
    return delay + sim::transmission_time(bytes, rate);
  };
  EXPECT_EQ(leaf_spine_cross_rtt(options),
            2 * (hop(sim::micros(2), kDataPacketBytes, 10e9) +
                 hop(sim::micros(2), kAckPacketBytes, 10e9)) +
                2 * (hop(sim::micros(5), kDataPacketBytes, 40e9) +
                     hop(sim::micros(5), kAckPacketBytes, 40e9)));
}

TEST(TopologyTest, BuilderRejectsDegenerateShapes) {
  LeafSpineOptions zero_spines;
  zero_spines.num_spines = 0;
  EXPECT_THROW(make_leaf_spine(zero_spines), std::invalid_argument);
  LeafSpineOptions bad_rate;
  bad_rate.spine_rate_bps = 0;
  EXPECT_THROW(make_leaf_spine(bad_rate), std::invalid_argument);
}

TEST(TopologyTest, WideOversubscribedFabricKeepsFullPathDiversity) {
  // 6 spines at an 8:1 oversubscription: ECMP must still see all 6 paths
  // (the old silent 64-path cap is gone).
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpineOptions options;
  options.hosts_per_leaf = 12;
  options.num_leaves = 2;
  options.num_spines = 6;
  const LeafSpineOptions contended = options.with_oversubscription(8.0);
  const MaterializedFabric ls =
      topo.materialize(make_leaf_spine(contended), drop_tail_factory());
  EXPECT_DOUBLE_EQ(contended.oversubscription(), 8.0);
  const auto paths = all_shortest_paths(topo, ls.hosts[0], ls.hosts[12]);
  EXPECT_EQ(paths.size(), 6u);
  // Same-leaf pairs bypass the contended core entirely.
  EXPECT_EQ(all_shortest_paths(topo, ls.hosts[0], ls.hosts[1]).size(), 1u);
}

}  // namespace
}  // namespace numfabric::net
