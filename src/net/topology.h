// Topology: owns the packet engine's nodes and links.
//
// Evaluation topologies (§6):
//  * leaf-spine, 128 hosts / 8 leaves / 4 spines, 10G edge + 40G core,
//    16 us base RTT, 1 MB per-port buffers (Fig. 4-6);
//  * leaf-spine, 128 hosts / 8 leaves / 16 spines, all-10G (Fig. 8);
//  * single bottleneck link with variable capacity (Fig. 9);
//  * the three-link topology of Fig. 10;
// plus dumbbell and parking-lot used by tests.
//
// Leaf-spines are FabricGraphs (make_leaf_spine, net/fabric_graph.h) that
// materialize() instantiates; the builders below hand-wire the rest.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric_graph.h"
#include "net/link.h"
#include "net/node.h"
#include "sim/simulator.h"

namespace numfabric::net {

/// Builds the queue for one link direction; lets the transport scheme choose
/// the scheduler (WFQ for NUMFabric, FIFO+ECN for DCTCP, ...).
using QueueFactory = std::function<std::unique_ptr<Queue>()>;

/// A convenient default: FIFO with the paper's 1 MB per-port buffer.
QueueFactory drop_tail_factory(std::size_t capacity_bytes = 1'000'000);

/// The object view of a FabricGraph after Topology::materialize: every vector
/// is indexed by the *graph's* numbering (`links[l]` is graph link l, which is
/// also its dense position in Topology::links()).
struct MaterializedFabric {
  std::vector<Node*> nodes;
  std::vector<Link*> links;
  std::vector<Host*> hosts;        // graph host order
  std::vector<Switch*> switches;   // graph switch order
};

class Topology {
 public:
  explicit Topology(sim::Simulator& sim) : sim_(sim) {}

  Host* add_host(std::string name);
  Switch* add_switch(std::string name);

  /// Connects a and b with a full-duplex cable (two unidirectional links that
  /// know each other as twins).  Returns {a->b, b->a}.
  std::pair<Link*, Link*> connect(Node* a, Node* b, double rate_bps,
                                  sim::TimeNs delay, const QueueFactory& make_queue);

  /// Instantiates Node/Link/Queue objects for `graph`: nodes in graph order,
  /// then one connect() per cable in cable order (graph link id == index in
  /// links()).  `make_queue` builds queues for edge cables (those touching a
  /// host); `make_core_queue`, when non-null, builds switch-switch queues
  /// instead — per-tier buffer sizing.
  MaterializedFabric materialize(const FabricGraph& graph,
                                 const QueueFactory& make_queue,
                                 const QueueFactory& make_core_queue = nullptr);

  sim::Simulator& sim() { return sim_; }

  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  const std::vector<Host*>& hosts() const { return hosts_; }
  const std::vector<Switch*>& switches() const { return switches_; }

  /// Outgoing links of a node (for path enumeration).
  const std::vector<Link*>& outgoing(const Node* node) const;

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Host*> hosts_;
  std::vector<Switch*> switches_;
  std::unordered_map<const Node*, std::vector<Link*>> adjacency_;
  NodeId next_node_id_ = 0;
};

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

struct Dumbbell {
  std::vector<Host*> senders;
  std::vector<Host*> receivers;
  Switch* left = nullptr;
  Switch* right = nullptr;
  Link* bottleneck = nullptr;  // left -> right
};

/// N senders and N receivers sharing one bottleneck of `bottleneck_bps`.
/// Edge links run at `edge_bps` (set it >= N * bottleneck to make the middle
/// link the only bottleneck).
Dumbbell build_dumbbell(Topology& topo, int n, double edge_bps,
                        double bottleneck_bps, sim::TimeNs delay,
                        const QueueFactory& make_queue);

struct ParkingLot {
  std::vector<Host*> hosts;        // host[i] attaches to switch[i]
  std::vector<Switch*> switches;   // chain of n+1 switches
  std::vector<Link*> backbone;     // switch[i] -> switch[i+1]
};

/// Chain of `n` backbone links; the classic multi-bottleneck fairness
/// topology (one long flow vs n one-hop flows).
ParkingLot build_parking_lot(Topology& topo, int n, double rate_bps,
                             sim::TimeNs delay, const QueueFactory& make_queue);

struct Fig10Topology {
  Host* src1 = nullptr;
  Host* src2 = nullptr;
  Host* dst1 = nullptr;
  Host* dst2 = nullptr;
  Link* top = nullptr;     // 5 Gbps, usable only by flow 1
  Link* middle = nullptr;  // X Gbps, shared
  Link* bottom = nullptr;  // 3 Gbps, usable only by flow 2
  Switch* in = nullptr;
  Switch* out = nullptr;
};

/// The Fig. 10 topology: two ingress/egress switches joined by three parallel
/// links (5 / X / 3 Gbps).  Flow 1 may use {top, middle}, flow 2 {bottom,
/// middle}; the experiment constructs those paths explicitly.
Fig10Topology build_fig10(Topology& topo, double middle_rate_bps,
                          sim::TimeNs delay, const QueueFactory& make_queue,
                          double edge_rate_bps = 100e9);

}  // namespace numfabric::net
