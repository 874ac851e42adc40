#include "flowsim/virtual_fabric.h"

#include <stdexcept>
#include <string>

#include "net/routing.h"
#include "num/utility.h"

namespace numfabric::flowsim {
namespace {

// SplitMix64 finalizer: a cheap, well-mixed hash for the per-flow spine
// pick.  Any fixed mixer works — it only has to spread consecutive flow ids
// across spines deterministically.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<double> VirtualLeafSpine::capacities() const {
  if (hosts_per_leaf < 1 || leaves < 1 || spines < 1) {
    throw std::invalid_argument("VirtualLeafSpine: non-positive dimension");
  }
  if (!sim::valid_rate_bps(host_rate) ||
      !sim::valid_rate_bps(leaf_spine_rate)) {
    throw std::invalid_argument("VirtualLeafSpine: non-positive rate");
  }
  std::vector<double> caps(static_cast<std::size_t>(links()));
  const int h = hosts();
  for (int i = 0; i < 2 * h; ++i) caps[static_cast<std::size_t>(i)] = host_rate;
  for (int i = 2 * h; i < links(); ++i) {
    caps[static_cast<std::size_t>(i)] = leaf_spine_rate;
  }
  return caps;
}

std::vector<int> VirtualLeafSpine::path(int src, int dst,
                                        std::uint64_t tiebreak) const {
  if (src == dst || src < 0 || dst < 0 || src >= hosts() || dst >= hosts()) {
    throw std::invalid_argument("VirtualLeafSpine: bad host pair");
  }
  const int h = hosts();
  const int up = src;
  const int down = h + dst;
  const int src_leaf = leaf_of(src);
  const int dst_leaf = leaf_of(dst);
  if (src_leaf == dst_leaf) return {up, down};
  const int spine = static_cast<int>(
      mix64(tiebreak) % static_cast<std::uint64_t>(spines));
  const int leaf_up = 2 * h + src_leaf * spines + spine;
  const int spine_down = 2 * h + leaves * spines + dst_leaf * spines + spine;
  return {up, leaf_up, spine_down, down};
}

VirtualFabric VirtualFabric::from_graph(const net::FabricGraph& graph,
                                        int k_paths) {
  if (k_paths < 1) {
    throw std::invalid_argument("VirtualFabric: k_paths must be >= 1");
  }
  if (graph.num_hosts() < 2) {
    throw std::invalid_argument("VirtualFabric: need at least 2 hosts");
  }
  VirtualFabric fabric;
  fabric.capacities_.reserve(static_cast<std::size_t>(graph.num_links()));
  for (int link = 0; link < graph.num_links(); ++link) {
    fabric.capacities_.push_back(num::to_rate_units(graph.link_rate_bps(link)));
  }
  // Dense numbering of the switches that actually bear hosts; the path table
  // only covers those (a spine never terminates a flow).
  std::vector<int> switch_index(static_cast<std::size_t>(graph.num_nodes()), -1);
  std::vector<int> switch_node;
  for (int n = 0; n < graph.num_nodes(); ++n) {
    if (graph.nodes()[static_cast<std::size_t>(n)].kind != net::GraphNodeKind::kHost) {
      continue;
    }
    const int uplink = graph.host_uplink(n);
    const int sw = graph.link_dst(uplink);
    if (switch_index[static_cast<std::size_t>(sw)] < 0) {
      switch_index[static_cast<std::size_t>(sw)] =
          static_cast<int>(switch_node.size());
      switch_node.push_back(sw);
    }
    fabric.host_uplink_.push_back(uplink);
    fabric.host_switch_index_.push_back(switch_index[static_cast<std::size_t>(sw)]);
  }
  fabric.num_switches_ = static_cast<int>(switch_node.size());
  fabric.table_.resize(static_cast<std::size_t>(fabric.num_switches_) *
                       static_cast<std::size_t>(fabric.num_switches_));
  for (int a = 0; a < fabric.num_switches_; ++a) {
    for (int b = 0; b < fabric.num_switches_; ++b) {
      if (a == b) continue;
      auto paths = net::k_shortest_paths(graph, switch_node[static_cast<std::size_t>(a)],
                                         switch_node[static_cast<std::size_t>(b)],
                                         static_cast<std::size_t>(k_paths));
      if (paths.empty()) {
        throw std::runtime_error(
            "VirtualFabric: no route between switches '" +
            graph.nodes()[static_cast<std::size_t>(switch_node[static_cast<std::size_t>(a)])].name +
            "' and '" +
            graph.nodes()[static_cast<std::size_t>(switch_node[static_cast<std::size_t>(b)])].name +
            "'");
      }
      fabric.table_[static_cast<std::size_t>(a) *
                        static_cast<std::size_t>(fabric.num_switches_) +
                    static_cast<std::size_t>(b)] = std::move(paths);
    }
  }
  return fabric;
}

std::vector<int> VirtualFabric::path(int src, int dst,
                                     std::uint64_t tiebreak) const {
  if (src == dst || src < 0 || dst < 0 || src >= hosts() || dst >= hosts()) {
    throw std::invalid_argument("VirtualFabric: bad host pair");
  }
  const int up = host_uplink_[static_cast<std::size_t>(src)];
  const int down =
      net::FabricGraph::reverse(host_uplink_[static_cast<std::size_t>(dst)]);
  const int a = host_switch_index_[static_cast<std::size_t>(src)];
  const int b = host_switch_index_[static_cast<std::size_t>(dst)];
  if (a == b) return {up, down};
  const auto& choices =
      table_[static_cast<std::size_t>(a) * static_cast<std::size_t>(num_switches_) +
             static_cast<std::size_t>(b)];
  const auto& core = choices[net::ecmp_index(choices.size(), tiebreak)];
  std::vector<int> result;
  result.reserve(core.size() + 2);
  result.push_back(up);
  result.insert(result.end(), core.begin(), core.end());
  result.push_back(down);
  return result;
}

}  // namespace numfabric::flowsim
