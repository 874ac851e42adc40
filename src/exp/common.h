// Shared experiment plumbing: the evaluation fabric and its path sets, link
// capacities for oracle problems, throughput measurement windows, and the
// quick/full scale switch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
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
/// identical routes.
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
  /// Host object -> graph node id (filled by materialize_fabric).
  std::unordered_map<const net::Host*, int> host_node;
  /// Memoized per-ordered-pair jellyfish path sets (Yen is deterministic, so
  /// caching cannot change results).
  std::map<std::pair<int, int>, std::vector<std::vector<int>>> path_cache;
};

/// Builds the graph + metadata for either fabric kind.  No Topology needed
/// yet — callers size the shard engine off the plan before materializing.
/// `k_paths` sizes jellyfish path tables only; leaf-spine pairs always get
/// their complete shortest-path set.
BuiltFabric plan_fabric(const net::LeafSpineOptions& leaf_spine,
                        const std::optional<net::JellyfishOptions>& jellyfish,
                        int k_paths);

/// Materializes the planned graph into `topo` and fills the object-side
/// fields (mat, host_node).
void materialize_fabric(BuiltFabric& fabric, net::Topology& topo,
                        const net::QueueFactory& edge_queue,
                        const net::QueueFactory& core_queue = nullptr);

/// Path set (graph link ids) for one host pair: the COMPLETE shortest-path
/// set on leaf-spine (classic ECMP, no-silent-caps contract) or the
/// fabric's k-shortest table entry on jellyfish.  Deterministic order; pick
/// with net::ecmp_index.
const std::vector<std::vector<int>>& pair_paths(BuiltFabric& fabric,
                                                int src_node, int dst_node);

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
