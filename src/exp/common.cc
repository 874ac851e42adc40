#include "exp/common.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "net/routing.h"
#include "num/utility.h"

namespace numfabric::exp {

void apply_sharding(ShardSetup& setup, sim::ShardedSimulator& engine,
                    net::Topology& topo, transport::Fabric& fabric,
                    const BuiltFabric& built) {
  if (!engine.sharded()) return;
  setup.plan =
      net::build_shard_plan(built.graph, built.mat, engine.num_shards());
  engine.set_lookahead(setup.plan.lookahead);
  setup.router = std::make_unique<net::ShardRouter>(engine);
  net::apply_shard_plan(topo, setup.plan, engine, *setup.router);
  fabric.set_sharding(&setup.plan, &engine);
}

BuiltFabric plan_fabric(const net::LeafSpineOptions& leaf_spine,
                        const std::optional<net::JellyfishOptions>& jellyfish,
                        int k_paths) {
  BuiltFabric fabric;
  fabric.k_paths = k_paths;
  if (jellyfish.has_value()) {
    fabric.jellyfish = true;
    fabric.graph = net::make_jellyfish(*jellyfish);
    fabric.base_rtt = net::base_rtt(fabric.graph);
    fabric.host_rate_bps = jellyfish->host_rate_bps;
    fabric.tier1_switches = jellyfish->switches;
  } else {
    fabric.graph = net::make_leaf_spine(leaf_spine);
    fabric.base_rtt = net::leaf_spine_cross_rtt(leaf_spine);
    fabric.host_rate_bps = leaf_spine.host_rate_bps;
    fabric.tier1_switches = leaf_spine.num_leaves;
  }
  const net::FabricGraph& graph = fabric.graph;
  std::vector<int> switch_tor(static_cast<std::size_t>(graph.num_nodes()), -1);
  fabric.node_tor.assign(static_cast<std::size_t>(graph.num_nodes()), -1);
  for (int n = 0; n < graph.num_nodes(); ++n) {
    if (graph.nodes()[static_cast<std::size_t>(n)].kind !=
        net::GraphNodeKind::kHost) {
      continue;
    }
    int& tor = switch_tor[static_cast<std::size_t>(
        graph.link_dst(graph.host_uplink(n)))];
    if (tor < 0) tor = fabric.tors++;
    fabric.node_tor[static_cast<std::size_t>(n)] = tor;
    fabric.host_nodes.push_back(n);
  }
  fabric.core_paths.resize(static_cast<std::size_t>(fabric.tors) *
                           static_cast<std::size_t>(fabric.tors));
  return fabric;
}

void materialize_fabric(BuiltFabric& fabric, net::Topology& topo,
                        const net::QueueFactory& edge_queue,
                        const net::QueueFactory& core_queue) {
  fabric.mat = topo.materialize(fabric.graph, edge_queue, core_queue);
  fabric.host_node.reserve(fabric.host_nodes.size());
  for (std::size_t i = 0; i < fabric.host_nodes.size(); ++i) {
    fabric.host_node[fabric.mat.hosts[i]] = fabric.host_nodes[i];
  }
}

std::vector<int> PairPaths::operator[](std::size_t i) const {
  const std::vector<int>& core = (*cores)[i];
  std::vector<int> path;
  path.reserve(core.size() + 2);
  path.push_back(uplink);
  path.insert(path.end(), core.begin(), core.end());
  path.push_back(downlink);
  return path;
}

PairPaths pair_paths(BuiltFabric& fabric, int src_node, int dst_node) {
  const auto tor_of = [&fabric](int node) {
    return node >= 0 && node < fabric.graph.num_nodes()
               ? fabric.node_tor[static_cast<std::size_t>(node)]
               : -1;
  };
  const int src_tor = tor_of(src_node);
  const int dst_tor = tor_of(dst_node);
  if (src_tor < 0 || dst_tor < 0) {
    throw std::invalid_argument("pair_paths: graph node is not a host");
  }
  if (src_node == dst_node) {
    throw std::invalid_argument("pair_paths: src == dst");
  }
  const net::FabricGraph& graph = fabric.graph;
  const int uplink = graph.host_uplink(src_node);
  const int downlink = net::FabricGraph::reverse(graph.host_uplink(dst_node));
  auto& cores = fabric.core_paths[static_cast<std::size_t>(src_tor) *
                                      static_cast<std::size_t>(fabric.tors) +
                                  static_cast<std::size_t>(dst_tor)];
  if (cores.empty() && src_tor == dst_tor) cores.emplace_back();
  if (cores.empty()) {
    const int from = graph.link_dst(uplink);
    const int to = graph.link_src(downlink);
    cores = fabric.jellyfish
                ? net::k_shortest_paths(graph, from, to,
                                        static_cast<std::size_t>(fabric.k_paths))
                : net::all_shortest_paths(graph, from, to);
    if (cores.empty()) {
      throw std::runtime_error("pair_paths: no route between switches " +
                               std::to_string(from) + " and " +
                               std::to_string(to));
    }
  }
  return {&cores, uplink, downlink};
}

net::Path to_packet_path(const BuiltFabric& fabric,
                         const std::vector<int>& links) {
  net::Path path;
  path.links.reserve(links.size());
  for (const int link : links) {
    path.links.push_back(fabric.mat.links[static_cast<std::size_t>(link)]);
  }
  return path;
}

std::vector<double> graph_capacities(const net::FabricGraph& graph) {
  std::vector<double> caps;
  caps.reserve(static_cast<std::size_t>(graph.num_links()));
  for (int link = 0; link < graph.num_links(); ++link) {
    caps.push_back(num::to_rate_units(graph.link_rate_bps(link)));
  }
  return caps;
}

LinkIndexer::LinkIndexer(const net::Topology& topo) {
  for (const auto& link : topo.links()) {
    capacities_.push_back(num::to_rate_units(link->rate_bps()));
  }
}

double window_rate_bps(std::uint64_t start_bytes, std::uint64_t end_bytes,
                       sim::TimeNs window) {
  if (window <= 0) throw std::invalid_argument("window_rate_bps: empty window");
  return static_cast<double>(end_bytes - start_bytes) * 8.0 / sim::to_seconds(window);
}

double jain_index(const std::vector<double>& rates) {
  double sum = 0, sum_sq = 0;
  for (const double rate : rates) {
    sum += rate;
    sum_sq += rate * rate;
  }
  return sum_sq > 0 ? (sum * sum) / (static_cast<double>(rates.size()) * sum_sq)
                    : 0.0;
}

Scale quick_scale() { return Scale{}; }

Scale full_scale() {
  Scale scale;
  scale.full = true;
  scale.label = "full";
  scale.hosts_per_leaf = 16;
  scale.leaves = 8;
  scale.spines = 4;
  scale.num_paths = 1000;
  scale.initial_active = 400;
  scale.flows_per_event = 100;
  scale.num_events = 100;
  scale.min_active = 300;
  scale.max_active = 500;
  scale.convergence_timeout = sim::millis(50);
  scale.dynamic_flow_count = 10'000;
  scale.pooling_leaves = 8;
  scale.pooling_spines = 16;
  scale.pooling_hosts_per_leaf = 16;
  scale.warmup = sim::millis(10);
  scale.measure = sim::millis(20);
  return scale;
}

Scale scale_from_env() {
  const char* env = std::getenv("NUMFABRIC_FULL");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') return full_scale();
  return quick_scale();
}

}  // namespace numfabric::exp
