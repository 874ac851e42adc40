#include "net/fabric_graph.h"

#include <algorithm>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>

#include "net/packet.h"

namespace numfabric::net {

namespace {

/// SplitMix64 + Lemire fixed-point reduction: the repo's deterministic RNG
/// idiom (std::uniform_int_distribution is not specified by the standard and
/// differs across libstdc++/libc++, so it must never feed wiring decisions).
struct SplitMix64 {
  std::uint64_t state;

  explicit SplitMix64(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform index in [0, n) without modulo bias.
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
};

}  // namespace

int FabricGraph::add_host(std::string name) {
  nodes_.push_back({GraphNodeKind::kHost, std::move(name), /*tier=*/0});
  ++num_hosts_;
  adjacency_dirty_ = true;
  return num_nodes() - 1;
}

int FabricGraph::add_switch(std::string name, int tier) {
  nodes_.push_back({GraphNodeKind::kSwitch, std::move(name), tier});
  adjacency_dirty_ = true;
  return num_nodes() - 1;
}

int FabricGraph::add_cable(int a, int b, double rate_bps, sim::TimeNs delay) {
  if (a < 0 || a >= num_nodes() || b < 0 || b >= num_nodes()) {
    throw std::invalid_argument("FabricGraph::add_cable: unknown node");
  }
  if (a == b) {
    throw std::invalid_argument("FabricGraph::add_cable: self-cable");
  }
  if (!sim::valid_rate_bps(rate_bps)) {
    throw std::invalid_argument("FabricGraph::add_cable: rate must be positive");
  }
  if (delay < 0) {
    throw std::invalid_argument("FabricGraph::add_cable: negative delay");
  }
  cables_.push_back({a, b, rate_bps, delay});
  adjacency_dirty_ = true;
  return num_cables() - 1;
}

void FabricGraph::build_adjacency() const {
  adj_offsets_.assign(static_cast<std::size_t>(num_nodes()) + 1, 0);
  for (const GraphCable& c : cables_) {
    ++adj_offsets_[static_cast<std::size_t>(c.a) + 1];
    ++adj_offsets_[static_cast<std::size_t>(c.b) + 1];
  }
  for (std::size_t n = 1; n < adj_offsets_.size(); ++n) {
    adj_offsets_[n] += adj_offsets_[n - 1];
  }
  adj_links_.assign(static_cast<std::size_t>(num_links()), -1);
  std::vector<int> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (int c = 0; c < num_cables(); ++c) {
    const GraphCable& cable = cables_[static_cast<std::size_t>(c)];
    adj_links_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(cable.a)]++)] = 2 * c;
    adj_links_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(cable.b)]++)] = 2 * c + 1;
  }
  adjacency_dirty_ = false;
}

std::span<const int> FabricGraph::outgoing(int node) const {
  if (node < 0 || node >= num_nodes()) {
    throw std::invalid_argument("FabricGraph::outgoing: unknown node");
  }
  if (adjacency_dirty_) build_adjacency();
  const auto begin = static_cast<std::size_t>(adj_offsets_[static_cast<std::size_t>(node)]);
  const auto end = static_cast<std::size_t>(adj_offsets_[static_cast<std::size_t>(node) + 1]);
  return {adj_links_.data() + begin, end - begin};
}

int FabricGraph::host_uplink(int host) const {
  if (host < 0 || host >= num_nodes() ||
      nodes_[static_cast<std::size_t>(host)].kind != GraphNodeKind::kHost) {
    throw std::logic_error("FabricGraph::host_uplink: node is not a host");
  }
  const std::span<const int> out = outgoing(host);
  if (out.size() != 1) {
    throw std::logic_error("FabricGraph::host_uplink: host '" +
                           nodes_[static_cast<std::size_t>(host)].name +
                           "' does not have exactly one cable");
  }
  return out[0];
}

// ---------------------------------------------------------------------------
// Leaf-spine
// ---------------------------------------------------------------------------

LeafSpineOptions LeafSpineOptions::with_oversubscription(double ratio) const {
  if (!(ratio > 0)) {
    throw std::invalid_argument(
        "with_oversubscription: ratio must be positive");
  }
  LeafSpineOptions derived = *this;
  derived.spine_rate_bps =
      (hosts_per_leaf * host_rate_bps) / (num_spines * ratio);
  return derived;
}

FabricGraph make_leaf_spine(const LeafSpineOptions& options) {
  if (options.hosts_per_leaf < 1 || options.num_leaves < 1 ||
      options.num_spines < 1) {
    throw std::invalid_argument(
        "make_leaf_spine: hosts_per_leaf, num_leaves and num_spines must "
        "all be >= 1");
  }
  if (!sim::valid_rate_bps(options.host_rate_bps) ||
      !sim::valid_rate_bps(options.spine_rate_bps)) {
    throw std::invalid_argument(
        "make_leaf_spine: link rates must be positive");
  }
  const sim::TimeNs core_delay = options.effective_core_delay();
  FabricGraph graph;
  std::vector<int> leaves;
  std::vector<int> spines;
  for (int l = 0; l < options.num_leaves; ++l) {
    leaves.push_back(graph.add_switch("leaf" + std::to_string(l), /*tier=*/1));
  }
  for (int s = 0; s < options.num_spines; ++s) {
    spines.push_back(graph.add_switch("spine" + std::to_string(s), /*tier=*/2));
  }
  for (int l = 0; l < options.num_leaves; ++l) {
    for (int h = 0; h < options.hosts_per_leaf; ++h) {
      const int host =
          graph.add_host("h" + std::to_string(l * options.hosts_per_leaf + h));
      graph.add_cable(host, leaves[static_cast<std::size_t>(l)],
                      options.host_rate_bps, options.link_delay);
    }
  }
  for (int leaf : leaves) {
    for (int spine : spines) {
      graph.add_cable(leaf, spine, options.spine_rate_bps, core_delay);
    }
  }
  return graph;
}

sim::TimeNs leaf_spine_cross_rtt(const LeafSpineOptions& options) {
  // A cross-leaf data packet crosses 4 links each way: two edge hops at the
  // host rate and two core hops at the spine rate.  Each store-and-forward
  // hop pays its own serialization, so asymmetric tiers (40 G core over a
  // 10 G edge) reproduce the paper's base RTT exactly instead of
  // over-charging the core hops at the slower edge rate.
  const auto hop = [](sim::TimeNs delay, std::uint32_t bytes, double rate_bps) {
    return delay + sim::transmission_time(bytes, rate_bps);
  };
  const sim::TimeNs core_delay = options.effective_core_delay();
  const sim::TimeNs edge_one_way =
      hop(options.link_delay, kDataPacketBytes, options.host_rate_bps) +
      hop(options.link_delay, kAckPacketBytes, options.host_rate_bps);
  const sim::TimeNs core_one_way =
      hop(core_delay, kDataPacketBytes, options.spine_rate_bps) +
      hop(core_delay, kAckPacketBytes, options.spine_rate_bps);
  return 2 * (edge_one_way + core_one_way);
}

// ---------------------------------------------------------------------------
// Jellyfish
// ---------------------------------------------------------------------------

namespace {

/// Random r-regular graph over S switches via the Jellyfish incremental
/// construction: repeatedly join a uniformly random pair of non-adjacent
/// switches with free ports; when blocked, repair by breaking an existing
/// edge so the leftover ports can be absorbed (the paper's edge-swap step).
/// The edge set lives in a std::set so iteration — and therefore the cable
/// emission order — is deterministic.
std::vector<std::pair<int, int>> random_regular_edges(int switches, int degree,
                                                      SplitMix64& rng) {
  std::set<std::pair<int, int>> edges;
  std::vector<int> free_ports(static_cast<std::size_t>(switches), degree);
  const auto adjacent = [&edges](int u, int v) {
    return edges.count({std::min(u, v), std::max(u, v)}) != 0;
  };
  const auto add_edge = [&](int u, int v) {
    edges.insert({std::min(u, v), std::max(u, v)});
    --free_ports[static_cast<std::size_t>(u)];
    --free_ports[static_cast<std::size_t>(v)];
  };
  while (true) {
    std::vector<std::pair<int, int>> candidates;
    for (int u = 0; u < switches; ++u) {
      if (free_ports[static_cast<std::size_t>(u)] == 0) continue;
      for (int v = u + 1; v < switches; ++v) {
        if (free_ports[static_cast<std::size_t>(v)] == 0) continue;
        if (!adjacent(u, v)) candidates.push_back({u, v});
      }
    }
    if (!candidates.empty()) {
      const auto [u, v] = candidates[rng.pick(candidates.size())];
      add_edge(u, v);
      continue;
    }
    int total_free = 0;
    for (int f : free_ports) total_free += f;
    if (total_free <= 1) break;  // fully wired (odd leftover port unusable)
    // Blocked: every pair of switches with free ports is already adjacent.
    // Repair 1: a switch u with >= 2 free ports absorbs an existing edge
    // (x, y) — remove it, add (u, x) and (u, y).
    bool repaired = false;
    for (int u = 0; u < switches && !repaired; ++u) {
      if (free_ports[static_cast<std::size_t>(u)] < 2) continue;
      std::vector<std::pair<int, int>> eligible;
      for (const auto& e : edges) {
        if (e.first == u || e.second == u) continue;
        if (adjacent(u, e.first) || adjacent(u, e.second)) continue;
        eligible.push_back(e);
      }
      if (eligible.empty()) continue;
      const auto e = eligible[rng.pick(eligible.size())];
      edges.erase(e);
      ++free_ports[static_cast<std::size_t>(e.first)];
      ++free_ports[static_cast<std::size_t>(e.second)];
      add_edge(u, e.first);
      add_edge(u, e.second);
      repaired = true;
    }
    if (repaired) continue;
    // Repair 2: two (necessarily adjacent) switches u, v each with one free
    // port split an existing disjoint edge (x, y) into (u, x) and (v, y).
    for (int u = 0; u < switches && !repaired; ++u) {
      if (free_ports[static_cast<std::size_t>(u)] == 0) continue;
      for (int v = 0; v < switches && !repaired; ++v) {
        if (v == u || free_ports[static_cast<std::size_t>(v)] == 0) continue;
        std::vector<std::pair<int, int>> eligible;
        for (const auto& e : edges) {
          if (e.first == u || e.second == u || e.first == v || e.second == v) {
            continue;
          }
          if (!adjacent(u, e.first) && !adjacent(v, e.second)) {
            eligible.push_back(e);
          }
        }
        if (eligible.empty()) continue;
        const auto e = eligible[rng.pick(eligible.size())];
        edges.erase(e);
        ++free_ports[static_cast<std::size_t>(e.first)];
        ++free_ports[static_cast<std::size_t>(e.second)];
        add_edge(u, e.first);
        add_edge(v, e.second);
        repaired = true;
      }
    }
    if (!repaired) break;  // tiny graphs can wedge one port short of regular
  }
  return {edges.begin(), edges.end()};
}

bool switches_connected(const FabricGraph& graph) {
  const int nodes = graph.num_nodes();
  std::vector<char> seen(static_cast<std::size_t>(nodes), 0);
  int start = -1;
  for (int n = 0; n < nodes; ++n) {
    if (graph.nodes()[static_cast<std::size_t>(n)].kind == GraphNodeKind::kSwitch) {
      start = n;
      break;
    }
  }
  if (start < 0) return false;
  std::vector<int> stack{start};
  seen[static_cast<std::size_t>(start)] = 1;
  int visited = 0;
  while (!stack.empty()) {
    const int at = stack.back();
    stack.pop_back();
    ++visited;
    for (int link : graph.outgoing(at)) {
      const int next = graph.link_dst(link);
      if (graph.nodes()[static_cast<std::size_t>(next)].kind != GraphNodeKind::kSwitch) {
        continue;
      }
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = 1;
        stack.push_back(next);
      }
    }
  }
  return visited == graph.num_switches();
}

}  // namespace

FabricGraph make_jellyfish(const JellyfishOptions& options) {
  if (options.switches < 3) {
    throw std::invalid_argument("make_jellyfish: need at least 3 switches");
  }
  if (options.ports < 2 || options.ports >= options.switches) {
    throw std::invalid_argument(
        "make_jellyfish: ports (switch degree) must be in [2, switches)");
  }
  if (options.hosts < 2) {
    throw std::invalid_argument("make_jellyfish: need at least 2 hosts");
  }
  if (!sim::valid_rate_bps(options.host_rate_bps) ||
      !sim::valid_rate_bps(options.switch_rate_bps)) {
    throw std::invalid_argument("make_jellyfish: link rates must be positive");
  }
  FabricGraph graph;
  std::vector<int> switches;
  for (int s = 0; s < options.switches; ++s) {
    switches.push_back(graph.add_switch("sw" + std::to_string(s), /*tier=*/1));
  }
  for (int h = 0; h < options.hosts; ++h) {
    const int host = graph.add_host("h" + std::to_string(h));
    graph.add_cable(host, switches[static_cast<std::size_t>(h % options.switches)],
                    options.host_rate_bps, options.link_delay);
  }
  SplitMix64 rng(options.seed);
  for (const auto& [u, v] : random_regular_edges(options.switches, options.ports, rng)) {
    graph.add_cable(switches[static_cast<std::size_t>(u)],
                    switches[static_cast<std::size_t>(v)],
                    options.switch_rate_bps, options.link_delay);
  }
  if (!switches_connected(graph)) {
    throw std::runtime_error(
        "make_jellyfish: the random wiring for seed " +
        std::to_string(options.seed) +
        " is disconnected; pick another seed or more ports per switch");
  }
  return graph;
}

// ---------------------------------------------------------------------------
// Generic base RTT
// ---------------------------------------------------------------------------

sim::TimeNs base_rtt(const FabricGraph& graph) {
  // Find the farthest pair of host-bearing switches (BFS over the switch
  // subgraph from each one) and charge the full store-and-forward round trip
  // along host -> ... -> host: per hop, propagation + data serialization
  // forward and propagation + ACK serialization back, at that hop's rate.
  const auto is_switch = [&graph](int n) {
    return graph.nodes()[static_cast<std::size_t>(n)].kind == GraphNodeKind::kSwitch;
  };
  // first_host[s]: lowest-numbered host hanging off switch s (or -1).
  std::vector<int> first_host(static_cast<std::size_t>(graph.num_nodes()), -1);
  std::vector<int> second_host(static_cast<std::size_t>(graph.num_nodes()), -1);
  for (int n = 0; n < graph.num_nodes(); ++n) {
    if (is_switch(n)) continue;
    const int sw = graph.link_dst(graph.host_uplink(n));
    auto& first = first_host[static_cast<std::size_t>(sw)];
    auto& second = second_host[static_cast<std::size_t>(sw)];
    if (first < 0) {
      first = n;
    } else if (second < 0) {
      second = n;
    }
  }
  const auto round_trip = [&graph](const std::vector<int>& hops) {
    sim::TimeNs rtt = 0;
    for (int link : hops) {
      rtt += graph.link_delay(link) +
             sim::transmission_time(kDataPacketBytes, graph.link_rate_bps(link));
      rtt += graph.link_delay(link) +
             sim::transmission_time(kAckPacketBytes, graph.link_rate_bps(link));
    }
    return rtt;
  };
  sim::TimeNs best = -1;
  int best_dist = -1;
  for (int src_sw = 0; src_sw < graph.num_nodes(); ++src_sw) {
    if (!is_switch(src_sw) || first_host[static_cast<std::size_t>(src_sw)] < 0) {
      continue;
    }
    // BFS over switches, remembering the inbound link for path recovery.
    std::vector<int> dist(static_cast<std::size_t>(graph.num_nodes()), -1);
    std::vector<int> via(static_cast<std::size_t>(graph.num_nodes()), -1);
    std::queue<int> frontier;
    dist[static_cast<std::size_t>(src_sw)] = 0;
    frontier.push(src_sw);
    while (!frontier.empty()) {
      const int at = frontier.front();
      frontier.pop();
      for (int link : graph.outgoing(at)) {
        const int next = graph.link_dst(link);
        if (!is_switch(next) || dist[static_cast<std::size_t>(next)] >= 0) continue;
        dist[static_cast<std::size_t>(next)] = dist[static_cast<std::size_t>(at)] + 1;
        via[static_cast<std::size_t>(next)] = link;
        frontier.push(next);
      }
    }
    for (int dst_sw = 0; dst_sw < graph.num_nodes(); ++dst_sw) {
      if (!is_switch(dst_sw) || dist[static_cast<std::size_t>(dst_sw)] < 0) continue;
      const int src_host = first_host[static_cast<std::size_t>(src_sw)];
      // A same-switch "pair" needs two distinct hosts on that switch.
      const int dst_host = dst_sw == src_sw
                               ? second_host[static_cast<std::size_t>(dst_sw)]
                               : first_host[static_cast<std::size_t>(dst_sw)];
      if (dst_host < 0) continue;
      if (dist[static_cast<std::size_t>(dst_sw)] <= best_dist) continue;
      std::vector<int> hops{graph.host_uplink(src_host)};
      std::vector<int> core;
      for (int at = dst_sw; at != src_sw; at = graph.link_src(via[static_cast<std::size_t>(at)])) {
        core.push_back(via[static_cast<std::size_t>(at)]);
      }
      hops.insert(hops.end(), core.rbegin(), core.rend());
      hops.push_back(FabricGraph::reverse(graph.host_uplink(dst_host)));
      best = round_trip(hops);
      best_dist = dist[static_cast<std::size_t>(dst_sw)];
    }
  }
  if (best < 0) {
    throw std::invalid_argument(
        "base_rtt: the graph has no host pair to measure");
  }
  return best;
}

}  // namespace numfabric::net
