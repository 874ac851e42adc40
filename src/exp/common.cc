#include "exp/common.h"

#include <cstdlib>
#include <stdexcept>

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
  return fabric;
}

void materialize_fabric(BuiltFabric& fabric, net::Topology& topo,
                        const net::QueueFactory& edge_queue,
                        const net::QueueFactory& core_queue) {
  fabric.mat = topo.materialize(fabric.graph, edge_queue, core_queue);
  fabric.host_node.reserve(fabric.mat.hosts.size());
  int host_index = 0;
  for (int n = 0; n < fabric.graph.num_nodes(); ++n) {
    if (fabric.graph.nodes()[static_cast<std::size_t>(n)].kind ==
        net::GraphNodeKind::kHost) {
      fabric.host_node[fabric.mat.hosts[static_cast<std::size_t>(host_index++)]] = n;
    }
  }
}

const std::vector<std::vector<int>>& pair_paths(BuiltFabric& fabric,
                                                int src_node, int dst_node) {
  auto [it, fresh] = fabric.path_cache.try_emplace({src_node, dst_node});
  if (fresh) {
    it->second = fabric.jellyfish
                     ? net::k_shortest_paths(
                           fabric.graph, src_node, dst_node,
                           static_cast<std::size_t>(fabric.k_paths))
                     : net::all_shortest_paths(fabric.graph, src_node, dst_node);
    if (it->second.empty()) {
      throw std::runtime_error(
          "pair_paths: no route between graph nodes " +
          std::to_string(src_node) + " and " + std::to_string(dst_node));
    }
  }
  return it->second;
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
