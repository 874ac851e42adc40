#include "net/shard_plan.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/node.h"
#include "sim/substrate_stats.h"

namespace numfabric::net {

int ShardPlan::shard_of(const Node* node) const {
  const auto it = node_shard.find(node);
  if (it == node_shard.end()) {
    throw std::logic_error("ShardPlan: node not in plan: " + node->name());
  }
  return it->second;
}

int resolve_shard_count(int requested, int num_leaves) {
  if (requested == 0) {
    const int cores =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    requested = cores;
  }
  return std::clamp(requested, 1, std::max(1, num_leaves));
}

std::string shard_partition_obstacle(const FabricGraph& graph) {
  bool has_tier2 = false;
  bool has_switch_cable = false;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == GraphNodeKind::kSwitch && node.tier >= 2) {
      has_tier2 = true;
    }
  }
  for (const GraphCable& cable : graph.cables()) {
    const GraphNode& a = graph.nodes()[static_cast<std::size_t>(cable.a)];
    const GraphNode& b = graph.nodes()[static_cast<std::size_t>(cable.b)];
    if (a.kind == GraphNodeKind::kHost && b.kind == GraphNodeKind::kHost) {
      return "hosts '" + a.name + "' and '" + b.name +
             "' are cabled directly; the planner partitions hosts by their "
             "leaf switch";
    }
    if (a.kind == GraphNodeKind::kSwitch && b.kind == GraphNodeKind::kSwitch) {
      has_switch_cable = true;
      if (a.tier == b.tier) {
        return "switches '" + a.name + "' and '" + b.name +
               "' are cabled inside tier " + std::to_string(a.tier) +
               "; there is no leaf/spine cut to place shard boundaries on "
               "(random-graph fabrics like jellyfish run on the serial "
               "engine only — use --shards=1)";
      }
    }
    if ((a.kind == GraphNodeKind::kHost && b.tier >= 2) ||
        (b.kind == GraphNodeKind::kHost && a.tier >= 2)) {
      const GraphNode& host = a.kind == GraphNodeKind::kHost ? a : b;
      return "host '" + host.name +
             "' attaches to a tier-2 (spine) switch; hosts must hang off "
             "tier-1 leaves for a leaf partition to exist";
    }
  }
  for (int n = 0; n < graph.num_nodes(); ++n) {
    const GraphNode& node = graph.nodes()[static_cast<std::size_t>(n)];
    if (node.kind != GraphNodeKind::kHost) continue;
    if (graph.outgoing(n).size() != 1) {
      return "host '" + node.name + "' has " +
             std::to_string(graph.outgoing(n).size()) +
             " cables; the planner needs single-homed hosts";
    }
  }
  if (has_switch_cable && !has_tier2) {
    return "every switch sits in one tier; there is no leaf/spine cut to "
           "place shard boundaries on (use --shards=1)";
  }
  return {};
}

ShardPlan build_shard_plan(const FabricGraph& graph,
                           const MaterializedFabric& mat, int shards) {
  const std::string obstacle = shard_partition_obstacle(graph);
  if (!obstacle.empty()) {
    throw std::invalid_argument("build_shard_plan: " + obstacle);
  }
  // Leaf index of every tier-1 switch, in insertion order — the same
  // leaf-major blocks the serial setup enumerates.
  std::vector<int> leaf_index(static_cast<std::size_t>(graph.num_nodes()), -1);
  int num_leaves = 0;
  int num_spines = 0;
  ShardPlan plan;
  plan.shards = shards;
  for (int n = 0; n < graph.num_nodes(); ++n) {
    const GraphNode& node = graph.nodes()[static_cast<std::size_t>(n)];
    if (node.kind == GraphNodeKind::kSwitch && node.tier == 1) {
      leaf_index[static_cast<std::size_t>(n)] = num_leaves++;
    }
  }
  if (shards < 1 || shards > num_leaves) {
    throw std::invalid_argument("build_shard_plan: shards out of range");
  }
  plan.lookahead = 0;
  bool saw_cut_cable = false;
  for (const GraphCable& cable : graph.cables()) {
    const GraphNode& a = graph.nodes()[static_cast<std::size_t>(cable.a)];
    const GraphNode& b = graph.nodes()[static_cast<std::size_t>(cable.b)];
    if (a.kind != GraphNodeKind::kSwitch || b.kind != GraphNodeKind::kSwitch) {
      continue;
    }
    if (!saw_cut_cable || cable.delay < plan.lookahead) {
      plan.lookahead = cable.delay;
    }
    saw_cut_cable = true;
  }
  for (int n = 0; n < graph.num_nodes(); ++n) {
    const GraphNode& node = graph.nodes()[static_cast<std::size_t>(n)];
    Node* obj = mat.nodes[static_cast<std::size_t>(n)];
    if (node.kind == GraphNodeKind::kHost) {
      const int leaf_node = graph.link_dst(graph.host_uplink(n));
      plan.node_shard[obj] =
          leaf_index[static_cast<std::size_t>(leaf_node)] * shards / num_leaves;
    } else if (node.tier == 1) {
      plan.node_shard[obj] =
          leaf_index[static_cast<std::size_t>(n)] * shards / num_leaves;
    } else {
      plan.node_shard[obj] = num_spines++ % shards;
    }
  }
  return plan;
}

ShardRouter::ShardRouter(sim::ShardedSimulator& engine)
    : engine_(engine), shards_(engine.num_shards()) {
  channels_.reserve(static_cast<std::size_t>(shards_ * shards_));
  for (int i = 0; i < shards_ * shards_; ++i) {
    channels_.push_back(std::make_unique<Channel>());
  }
  slabs_.resize(static_cast<std::size_t>(shards_));
  engine_.add_barrier_hook([this] { return stage(); });
  engine_.add_window_hook([this](int dst) { drain(dst); });
}

void ShardRouter::post(int src_shard, int dst_shard, sim::TimeNs fire,
                       sim::PushKey key, Node* dst, Packet&& packet) {
  Channel& ch = channel(src_shard, dst_shard);
  std::lock_guard<std::mutex> lock(ch.mu);
  if (ch.fifo.size() == ch.fifo.capacity()) {
    ++sim::substrate_stats().allocs_packet_pool;
  }
  ch.fifo.push_back(Message{fire, key, src_shard, dst, std::move(packet)});
}

sim::TimeNs ShardRouter::stage() {
  sim::TimeNs earliest = sim::ShardedSimulator::kNever;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    assert(ch->staged.empty());  // every window drains what it was given
    ch->staged.swap(ch->fifo);
    for (const Message& m : ch->staged) earliest = std::min(earliest, m.fire);
  }
  return earliest;
}

void ShardRouter::drain(int dst) {
  sim::Simulator& dsim = engine_.shard(dst);
  Slab& slab = slabs_[static_cast<std::size_t>(dst)];
  for (int src = 0; src < shards_; ++src) {
    if (src == dst) continue;
    Channel& ch = channel(src, dst);
    for (Message& m : ch.staged) {
      std::uint32_t slot;
      if (!slab.free.empty()) {
        slot = slab.free.back();
        slab.free.pop_back();
      } else {
        if (slab.packets.size() == slab.packets.capacity()) {
          ++sim::substrate_stats().allocs_packet_pool;
        }
        slot = static_cast<std::uint32_t>(slab.packets.size());
        slab.packets.emplace_back();
      }
      slab.packets[slot] = std::move(m.packet);
      // A message posted inside the last window carries a provisional
      // rank; the source shard's ranks for that window were installed at
      // the barrier just taken.
      const std::uint64_t rank =
          engine_.shard(m.src_shard).resolve_rank(m.key.rank);
      dsim.schedule_keyed(m.fire, rank, m.key.seq,
                          [this, dst, slot, node = m.dst] {
                            deliver(dst, slot, node);
                          });
    }
    ch.staged.clear();
  }
}

void ShardRouter::deliver(int dst_shard, std::uint32_t slot, Node* dst) {
  Slab& slab = slabs_[static_cast<std::size_t>(dst_shard)];
  Packet packet = std::move(slab.packets[slot]);
  if (slab.free.size() == slab.free.capacity()) {
    ++sim::substrate_stats().allocs_packet_pool;
  }
  slab.free.push_back(slot);
  dst->receive(std::move(packet));
}

void apply_shard_plan(Topology& topo, const ShardPlan& plan,
                      sim::ShardedSimulator& engine, ShardRouter& router) {
  const auto bind_node = [&](const Node* node) {
    const int src_shard = plan.shard_of(node);
    for (Link* link : topo.outgoing(node)) {
      link->rebind_sim(engine.shard(src_shard));
      const int dst_shard = plan.shard_of(link->dst());
      if (dst_shard == src_shard) continue;
      if (link->delay() < plan.lookahead) {
        throw std::logic_error(
            "apply_shard_plan: cross-shard link shorter than lookahead: " +
            link->name());
      }
      link->set_cross_shard(&router, src_shard, dst_shard);
    }
  };
  for (const Host* host : topo.hosts()) bind_node(host);
  for (const Switch* sw : topo.switches()) bind_node(sw);
}

}  // namespace numfabric::net
