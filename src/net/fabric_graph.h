// FabricGraph: the data-first topology model every layer consumes.
//
// A fabric is described once as plain data — node kinds (host/switch) with a
// tier label, bidirectional cables with {rate, delay} — and each engine
// derives its own view from it:
//  * the packet engine materializes Node/Link/Queue objects
//    (Topology::materialize), byte-identical to the historical hand-rolled
//    builders;
//  * the flow-fluid engine takes the capacity vector + the same link-id
//    paths (exp::graph_capacities, exp::pair_paths);
//  * the shard planner derives its partition and conservative lookahead from
//    tiers and cut-cable delays (net::build_shard_plan).
//
// Directed-link numbering: cable c contributes link 2c (a->b) and 2c+1
// (b->a); reverse(l) == l ^ 1.  Because materialize() creates links in cable
// order, a graph link id is *also* the dense index of the corresponding
// net::Link in Topology::links() — path sets computed on the graph are valid
// for both fidelities without translation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/time.h"

namespace numfabric::net {

enum class GraphNodeKind : std::uint8_t { kHost, kSwitch };

/// Tier labels: hosts are tier 0; in a Clos fabric leaves/ToRs are tier 1 and
/// spines tier 2.  Non-Clos fabrics (jellyfish) put every switch in tier 1 —
/// the shard planner uses tiers to decide whether a leaf/spine cut exists.
struct GraphNode {
  GraphNodeKind kind = GraphNodeKind::kSwitch;
  std::string name;
  int tier = 1;
};

/// A full-duplex cable: both directions share rate and propagation delay.
struct GraphCable {
  int a = -1;
  int b = -1;
  double rate_bps = 0;
  sim::TimeNs delay = 0;
};

class FabricGraph {
 public:
  int add_host(std::string name);
  int add_switch(std::string name, int tier = 1);
  /// Adds a cable between distinct existing nodes; returns the cable index.
  /// Directed links 2c and 2c+1 come into existence with it.
  int add_cable(int a, int b, double rate_bps, sim::TimeNs delay);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_cables() const { return static_cast<int>(cables_.size()); }
  int num_links() const { return 2 * num_cables(); }
  int num_hosts() const { return num_hosts_; }
  int num_switches() const { return num_nodes() - num_hosts_; }

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphCable>& cables() const { return cables_; }

  // Directed-link accessors (link id in [0, num_links())).
  int link_src(int link) const {
    const GraphCable& c = cables_[static_cast<std::size_t>(link >> 1)];
    return (link & 1) == 0 ? c.a : c.b;
  }
  int link_dst(int link) const {
    const GraphCable& c = cables_[static_cast<std::size_t>(link >> 1)];
    return (link & 1) == 0 ? c.b : c.a;
  }
  double link_rate_bps(int link) const {
    return cables_[static_cast<std::size_t>(link >> 1)].rate_bps;
  }
  sim::TimeNs link_delay(int link) const {
    return cables_[static_cast<std::size_t>(link >> 1)].delay;
  }
  static int reverse(int link) { return link ^ 1; }

  /// Outgoing directed links of `node`, in cable-insertion order — the same
  /// order Topology::outgoing() reports after materialize(), so path
  /// enumeration on the graph matches enumeration on the object topology.
  std::span<const int> outgoing(int node) const;

  /// The single host->switch uplink of a host.  Throws std::logic_error if
  /// the node is not a host with exactly one cable.
  int host_uplink(int host) const;

 private:
  void build_adjacency() const;

  std::vector<GraphNode> nodes_;
  std::vector<GraphCable> cables_;
  int num_hosts_ = 0;
  // Lazily rebuilt CSR adjacency: node n's outgoing links occupy
  // adj_links_[adj_offsets_[n] .. adj_offsets_[n + 1]).
  mutable std::vector<int> adj_offsets_;
  mutable std::vector<int> adj_links_;
  mutable bool adjacency_dirty_ = true;
};

// ---------------------------------------------------------------------------
// Graph builders
// ---------------------------------------------------------------------------

/// Parameterized leaf-spine fabric.  Host and core tiers are independent
/// (counts, rates, propagation delays), so the same builder covers the
/// paper's non-blocking 4:1-core fabric, all-10G symmetric fabrics (Fig. 8)
/// and deliberately oversubscribed cores (the contended-fabric scenario
/// family).
struct LeafSpineOptions {
  int hosts_per_leaf = 16;
  int num_leaves = 8;
  int num_spines = 4;
  double host_rate_bps = 10e9;
  double spine_rate_bps = 40e9;
  // 2 us per hop * 8 hops on a cross-leaf round trip = the paper's 16 us RTT.
  sim::TimeNs link_delay = sim::micros(2);
  /// Leaf-spine propagation delay; < 0 means "same as link_delay".  Longer
  /// core runs (asymmetric fabrics) set this explicitly.
  sim::TimeNs core_link_delay = -1;

  sim::TimeNs effective_core_delay() const {
    return core_link_delay < 0 ? link_delay : core_link_delay;
  }

  /// Core oversubscription ratio: per-leaf host demand over per-leaf core
  /// capacity.  1.0 = non-blocking (the paper's evaluation fabric); 4.0 = a
  /// 4:1 contended core.
  double oversubscription() const {
    return (hosts_per_leaf * host_rate_bps) / (num_spines * spine_rate_bps);
  }

  /// Copy with the spine rate re-derived so oversubscription() == ratio,
  /// keeping host rate and switch counts fixed.
  LeafSpineOptions with_oversubscription(double ratio) const;
};

/// Leaf-spine as data: leaves (tier 1) then spines (tier 2) then hosts in
/// leaf-major order, edge cables before core cables.  The golden hashes pin
/// this creation order (it fixes link ids, path order and ECMP picks).
/// Throws std::invalid_argument on non-positive counts or rates.
FabricGraph make_leaf_spine(const LeafSpineOptions& options);

/// Base (zero-load) RTT between two hosts under different leaves of a
/// leaf-spine, including serialization of one data packet + one ACK per
/// store-and-forward hop, each at that hop's own rate.
sim::TimeNs leaf_spine_cross_rtt(const LeafSpineOptions& options);

/// Jellyfish (Singla et al.): a random r-regular graph over the switches,
/// deterministic for a given seed, with hosts attached round-robin.  Every
/// switch is tier 1 — there is no leaf/spine cut, so the fabric runs on the
/// serial engine only (the shard planner explains why when asked).
struct JellyfishOptions {
  int switches = 16;
  /// Network-facing ports per switch == degree r of the random regular graph.
  int ports = 4;
  int hosts = 32;
  std::uint64_t seed = 1;
  double host_rate_bps = 10e9;
  double switch_rate_bps = 40e9;
  sim::TimeNs link_delay = sim::micros(2);
};

/// Builds the jellyfish graph: switches "sw0..", hosts "h0.." attached to
/// switch i % switches, then the random regular wiring (incremental
/// construction with edge-swap repair, SplitMix64-driven — identical output
/// for identical options on every platform).  Throws std::invalid_argument
/// on infeasible parameters and std::runtime_error if the wiring comes out
/// disconnected (pick another seed or more ports).
FabricGraph make_jellyfish(const JellyfishOptions& options);

/// Base (zero-load) RTT of the *longest* shortest host-to-host route in an
/// arbitrary graph: per store-and-forward hop, propagation + one data packet
/// forward and propagation + one ACK back, each at that hop's own rate.
/// Equals leaf_spine_cross_rtt on a multi-leaf leaf-spine; used as the
/// latency charge / BDP basis for fabrics with no "cross-leaf" notion.
sim::TimeNs base_rtt(const FabricGraph& graph);

}  // namespace numfabric::net
