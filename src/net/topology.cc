#include "net/topology.h"

#include <stdexcept>
#include <utility>

#include "net/drop_tail_queue.h"

namespace numfabric::net {

QueueFactory drop_tail_factory(std::size_t capacity_bytes) {
  return [capacity_bytes] { return std::make_unique<DropTailQueue>(capacity_bytes); };
}

Host* Topology::add_host(std::string name) {
  auto host = std::make_unique<Host>(next_node_id_++, std::move(name));
  Host* raw = host.get();
  nodes_.push_back(std::move(host));
  hosts_.push_back(raw);
  adjacency_[raw];  // ensure an (empty) adjacency entry exists
  return raw;
}

Switch* Topology::add_switch(std::string name) {
  auto sw = std::make_unique<Switch>(next_node_id_++, std::move(name));
  Switch* raw = sw.get();
  nodes_.push_back(std::move(sw));
  switches_.push_back(raw);
  adjacency_[raw];
  return raw;
}

std::pair<Link*, Link*> Topology::connect(Node* a, Node* b, double rate_bps,
                                          sim::TimeNs delay,
                                          const QueueFactory& make_queue) {
  if (a == nullptr || b == nullptr) {
    throw std::invalid_argument("Topology::connect: null node");
  }
  auto forward = std::make_unique<Link>(sim_, a->name() + "->" + b->name(),
                                        rate_bps, delay, make_queue(), b);
  auto backward = std::make_unique<Link>(sim_, b->name() + "->" + a->name(),
                                         rate_bps, delay, make_queue(), a);
  forward->set_twin(backward.get());
  backward->set_twin(forward.get());
  Link* f = forward.get();
  Link* r = backward.get();
  links_.push_back(std::move(forward));
  links_.push_back(std::move(backward));
  adjacency_[a].push_back(f);
  adjacency_[b].push_back(r);
  return {f, r};
}

const std::vector<Link*>& Topology::outgoing(const Node* node) const {
  auto it = adjacency_.find(node);
  if (it == adjacency_.end()) {
    throw std::invalid_argument("Topology::outgoing: unknown node");
  }
  return it->second;
}

MaterializedFabric Topology::materialize(const FabricGraph& graph,
                                         const QueueFactory& make_queue,
                                         const QueueFactory& make_core_queue) {
  const QueueFactory& core_queue = make_core_queue ? make_core_queue : make_queue;
  MaterializedFabric mat;
  mat.nodes.reserve(static_cast<std::size_t>(graph.num_nodes()));
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == GraphNodeKind::kHost) {
      Host* host = add_host(node.name);
      mat.nodes.push_back(host);
      mat.hosts.push_back(host);
    } else {
      Switch* sw = add_switch(node.name);
      mat.nodes.push_back(sw);
      mat.switches.push_back(sw);
    }
  }
  mat.links.reserve(static_cast<std::size_t>(graph.num_links()));
  for (const GraphCable& cable : graph.cables()) {
    const bool edge =
        graph.nodes()[static_cast<std::size_t>(cable.a)].kind == GraphNodeKind::kHost ||
        graph.nodes()[static_cast<std::size_t>(cable.b)].kind == GraphNodeKind::kHost;
    auto [fwd, back] = connect(mat.nodes[static_cast<std::size_t>(cable.a)],
                               mat.nodes[static_cast<std::size_t>(cable.b)],
                               cable.rate_bps, cable.delay,
                               edge ? make_queue : core_queue);
    mat.links.push_back(fwd);
    mat.links.push_back(back);
  }
  return mat;
}

Dumbbell build_dumbbell(Topology& topo, int n, double edge_bps,
                        double bottleneck_bps, sim::TimeNs delay,
                        const QueueFactory& make_queue) {
  Dumbbell result;
  result.left = topo.add_switch("left");
  result.right = topo.add_switch("right");
  auto [fwd, back] = topo.connect(result.left, result.right, bottleneck_bps,
                                  delay, make_queue);
  (void)back;
  result.bottleneck = fwd;
  for (int i = 0; i < n; ++i) {
    Host* s = topo.add_host("s" + std::to_string(i));
    Host* r = topo.add_host("r" + std::to_string(i));
    topo.connect(s, result.left, edge_bps, delay, make_queue);
    topo.connect(result.right, r, edge_bps, delay, make_queue);
    result.senders.push_back(s);
    result.receivers.push_back(r);
  }
  return result;
}

ParkingLot build_parking_lot(Topology& topo, int n, double rate_bps,
                             sim::TimeNs delay, const QueueFactory& make_queue) {
  if (n < 1) throw std::invalid_argument("build_parking_lot: n must be >= 1");
  ParkingLot result;
  for (int i = 0; i <= n; ++i) {
    result.switches.push_back(topo.add_switch("sw" + std::to_string(i)));
    Host* h = topo.add_host("h" + std::to_string(i));
    result.hosts.push_back(h);
    // Host links are 10x the backbone so only backbone links bottleneck.
    topo.connect(h, result.switches.back(), rate_bps * 10, delay, make_queue);
  }
  for (int i = 0; i < n; ++i) {
    auto [fwd, back] = topo.connect(result.switches[static_cast<std::size_t>(i)],
                                    result.switches[static_cast<std::size_t>(i + 1)],
                                    rate_bps, delay, make_queue);
    (void)back;
    result.backbone.push_back(fwd);
  }
  return result;
}

Fig10Topology build_fig10(Topology& topo, double middle_rate_bps,
                          sim::TimeNs delay, const QueueFactory& make_queue,
                          double edge_rate_bps) {
  Fig10Topology result;
  result.in = topo.add_switch("in");
  result.out = topo.add_switch("out");
  result.src1 = topo.add_host("src1");
  result.src2 = topo.add_host("src2");
  result.dst1 = topo.add_host("dst1");
  result.dst2 = topo.add_host("dst2");
  topo.connect(result.src1, result.in, edge_rate_bps, delay, make_queue);
  topo.connect(result.src2, result.in, edge_rate_bps, delay, make_queue);
  topo.connect(result.out, result.dst1, edge_rate_bps, delay, make_queue);
  topo.connect(result.out, result.dst2, edge_rate_bps, delay, make_queue);
  result.top = topo.connect(result.in, result.out, 5e9, delay, make_queue).first;
  result.middle =
      topo.connect(result.in, result.out, middle_rate_bps, delay, make_queue).first;
  result.bottom = topo.connect(result.in, result.out, 3e9, delay, make_queue).first;
  return result;
}

}  // namespace numfabric::net
