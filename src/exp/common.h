// Shared experiment plumbing: the evaluation fabric and its path sets, link
// capacities for oracle problems, throughput measurement windows, and the
// quick/full scale switch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/shard_plan.h"
#include "net/topology.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "transport/fabric.h"

namespace numfabric::exp {

/// Sharded-engine wiring owned by one experiment run: the leaf shard plan
/// and the cross-shard delivery router.  Empty (no router) when the engine
/// is serial.  Declare it in the experiment's scope — the fabric keeps a
/// pointer to the plan.
struct ShardSetup {
  net::ShardPlan plan;
  std::unique_ptr<net::ShardRouter> router;
};

/// One evaluation fabric — leaf-spine or jellyfish — as every experiment
/// runner consumes it: the FabricGraph plus, after materialize_fabric(), the
/// object view.  Paths are computed on the graph (link ids double as dense
/// Topology::links() indices), so the packet and flow engines select
/// identical routes.  mega-fct routes a jellyfish on the plan alone, without
/// materializing it.
struct BuiltFabric {
  net::FabricGraph graph;
  net::MaterializedFabric mat;
  /// Leaf-spine: the classic cross-leaf RTT formula; jellyfish:
  /// net::base_rtt(graph) (longest shortest host-pair route).
  sim::TimeNs base_rtt = 0;
  double host_rate_bps = 0;
  bool jellyfish = false;
  int k_paths = 8;
  /// Tier-1 switch count — the shard-count clamp basis (= num_leaves on a
  /// leaf-spine).
  int tier1_switches = 0;
  /// Graph node of each host, in graph order (the order of mat.hosts).
  std::vector<int> host_nodes;
  /// Host object -> graph node id (filled by materialize_fabric).
  std::unordered_map<const net::Host*, int> host_node;
  /// Per graph node: the dense index of the switch a host hangs off (its
  /// ToR), numbered in host order; -1 for every node that is not a host.
  std::vector<int> node_tor;
  int tors = 0;
  /// The route table: core (switch-to-switch) path sets per ordered ToR
  /// pair, slot src_tor * tors + dst_tor, each filled by pair_paths on first
  /// use.  A same-ToR slot holds one empty core path.
  std::vector<std::vector<std::vector<int>>> core_paths;
};

/// One host pair's path set, a view into BuiltFabric::core_paths (valid
/// while the fabric lives): path i is the source uplink, core path i and
/// the destination downlink, as graph link ids.
struct PairPaths {
  const std::vector<std::vector<int>>* cores = nullptr;
  int uplink = -1;
  int downlink = -1;

  std::size_t size() const { return cores->size(); }
  std::vector<int> operator[](std::size_t i) const;
};

/// Builds the graph + metadata for either fabric kind, with an empty route
/// table.  No Topology needed yet — callers size the shard engine off the
/// plan before materializing.  `k_paths` sizes jellyfish path sets only;
/// leaf-spine pairs always get their complete shortest-path set.
BuiltFabric plan_fabric(const net::LeafSpineOptions& leaf_spine,
                        const std::optional<net::JellyfishOptions>& jellyfish,
                        int k_paths);

/// Materializes the planned graph into `topo` and fills the object-side
/// fields (mat, host_node).
void materialize_fabric(BuiltFabric& fabric, net::Topology& topo,
                        const net::QueueFactory& edge_queue,
                        const net::QueueFactory& core_queue = nullptr);

/// Path set for one pair of host graph nodes: the COMPLETE shortest-path
/// set on leaf-spine (classic ECMP, no-silent-caps contract) or the k
/// shortest paths on jellyfish.  Routed between the two hosts' ToRs, once
/// per ToR pair; the order is that of routing the hosts directly.  Pick with
/// net::ecmp_index.  Throws std::invalid_argument when a node is not a host
/// or src == dst, and std::runtime_error when the ToRs are disconnected.
PairPaths pair_paths(BuiltFabric& fabric, int src_node, int dst_node);

/// A link-id path as the packet engine's object path.
net::Path to_packet_path(const BuiltFabric& fabric,
                         const std::vector<int>& links);

/// Per-link capacities of a graph in NUM rate units, in graph link order —
/// equal to LinkIndexer::capacities() for the materialized topology.
std::vector<double> graph_capacities(const net::FabricGraph& graph);

/// When `engine` is sharded: derives the leaf-major shard plan from the
/// graph, sets the engine's lookahead to the core-link delay, rebinds every
/// link onto its shard, and switches the fabric to sharded endpoint
/// placement.  Serial engines are left untouched.  Call after attach_agents
/// and before any flow is added.  Throws std::invalid_argument with the
/// shard-partition obstacle when the engine is sharded and the graph has no
/// leaf/spine cut (jellyfish).
void apply_sharding(ShardSetup& setup, sim::ShardedSimulator& engine,
                    net::Topology& topo, transport::Fabric& fabric,
                    const BuiltFabric& built);

/// Per-link capacities of a materialized topology in NUM rate units (Mbps),
/// in Topology::links() order — equal to graph_capacities() of the graph it
/// was materialized from.
class LinkIndexer {
 public:
  explicit LinkIndexer(const net::Topology& topo);

  const std::vector<double>& capacities() const { return capacities_; }

 private:
  std::vector<double> capacities_;
};

/// Average goodput of a flow (receiver bytes delta / window), in bps.
/// Snapshot `start` with flow.receiver().total_bytes() at window start.
double window_rate_bps(std::uint64_t start_bytes, std::uint64_t end_bytes,
                       sim::TimeNs window);

/// Jain's fairness index over per-flow rates: (sum x)^2 / (n * sum x^2).
/// 0 for an empty or all-zero input.
double jain_index(const std::vector<double>& rates);

/// Experiment scale.  Benches default to a laptop-quick configuration and
/// switch to the paper's full scale when NUMFABRIC_FULL=1 is set.
struct Scale {
  bool full = false;
  const char* label = "quick";

  // Leaf-spine size (paper: 16 x 8 leaves, 4 spines).
  int hosts_per_leaf = 8;
  int leaves = 4;
  int spines = 2;

  // Semi-dynamic scenario (paper: 1000 paths, 100x flows per event,
  // 100 events, 300-500 active).
  int num_paths = 240;
  int initial_active = 100;
  int flows_per_event = 25;
  int num_events = 8;
  int min_active = 75;
  int max_active = 125;
  /// Per-event convergence verdict timeout (paper-scale runs use 50 ms;
  /// quick runs cut losses earlier).
  sim::TimeNs convergence_timeout = sim::millis(20);

  // Dynamic workloads.
  int dynamic_flow_count = 1200;

  // Resource pooling (paper: 8 leaves, 16 spines, 64 pairs).
  int pooling_leaves = 4;
  int pooling_spines = 8;
  int pooling_hosts_per_leaf = 8;

  // Steady-state measurement window for throughput experiments.
  sim::TimeNs warmup = sim::millis(8);
  sim::TimeNs measure = sim::millis(12);
};

/// Reads NUMFABRIC_FULL from the environment.
Scale scale_from_env();

Scale quick_scale();
Scale full_scale();

}  // namespace numfabric::exp
