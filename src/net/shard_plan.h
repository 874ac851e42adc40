// Leaf-sharding of a leaf-spine fabric for the parallel engine.
//
// Partition: leaf L (its switch, its hosts, and every link whose source is
// one of them) lives on shard L * S / num_leaves — contiguous leaf-major
// blocks, so stream ranks follow the leaf-major order in which serial setup
// enumerates hosts and flows.  Spine s lives on shard s % S.  A link belongs
// to the shard of its SOURCE node (its transmitter and queue are that
// shard's state); the only cross-shard hops are therefore leaf->spine and
// spine->leaf deliveries, both across a core link — which makes the core
// propagation delay the engine's conservative lookahead.
//
// ShardRouter carries those deliveries: the source link posts a timestamped
// message into a per-(src,dst) channel carrying the (rank, seq) key the
// serial push would have had (a provisional rank if the posting event ran
// inside a window; the engine finalizes it at the barrier that follows).
// At each barrier the coordinator moves every channel's posts into the
// channel's staged buffer and reports their earliest fire time to the
// engine.  As its next window opens, each destination shard drains its
// staged buffers on its own thread, in a fixed (src, FIFO) order, into its
// queue via Simulator::schedule_keyed — insertion order is immaterial for
// correctness since keys are total, but a fixed order keeps the walk
// deterministic.  Channels are mutex-guarded but phase-separated: sources
// post during windows and the coordinator stages at barriers, so the locks
// are uncontended and exist for the memory ordering; a staged buffer
// belongs to its destination shard's thread during a window.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"
#include "sim/sharded_simulator.h"
#include "sim/time.h"

namespace numfabric::net {

struct ShardPlan {
  int shards = 1;
  /// Minimum delay of any cross-shard link (the core propagation delay).
  sim::TimeNs lookahead = 0;
  std::unordered_map<const Node*, int> node_shard;

  int shard_of(const Node* node) const;
};

/// Resolves a --shards request: 0 means "one shard per leaf, capped at the
/// machine's core count"; any request is clamped to [1, num_leaves].
int resolve_shard_count(int requested, int num_leaves);

/// Why the planner cannot derive a partition from `graph` — empty when it
/// can.  A partition needs a leaf/spine cut: hosts single-homed to tier-1
/// switches, a non-empty tier-2, and no cables inside either switch tier.
/// Non-Clos fabrics (jellyfish) fail with an explanation naming the obstacle
/// so drivers can reject --shards=N loudly instead of assuming leaf-spine
/// structure.
std::string shard_partition_obstacle(const FabricGraph& graph);

/// Derives the shard plan from graph structure: tier-1 switches in insertion
/// order form leaf-major blocks (switch l on shard l * shards / num_tier1),
/// their hosts follow them, tier-2 switches go round-robin, and the
/// lookahead is the minimum tier-1<->tier-2 cable delay (the cut the
/// conservative engine synchronizes across).  Throws std::invalid_argument
/// with the shard_partition_obstacle() text when no partition exists, or
/// when shards is outside [1, num_tier1].
ShardPlan build_shard_plan(const FabricGraph& graph,
                           const MaterializedFabric& mat, int shards);

/// Cross-shard packet delivery channels (see file comment).
class ShardRouter {
 public:
  ShardRouter(sim::ShardedSimulator& engine);
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Posts a delivery that fires at `fire` on `dst_shard`, carrying the
  /// (rank, seq) key the serial push would have had (see
  /// Simulator::consume_push_key).  Called by source links during windows
  /// (and by flow-start sends on the coordinator, with all workers
  /// quiesced).
  void post(int src_shard, int dst_shard, sim::TimeNs fire, sim::PushKey key,
            Node* dst, Packet&& packet);

 private:
  struct Message {
    sim::TimeNs fire;
    sim::PushKey key;
    int src_shard;
    Node* dst;
    Packet packet;
  };
  struct Channel {
    std::mutex mu;
    std::vector<Message> fifo;    // posted this window
    std::vector<Message> staged;  // posted last window, not yet drained
  };
  /// Parked packets per destination shard; the merged delivery event
  /// captures only (router, shard, slot, node) and stays inline in the
  /// event queue's small-buffer slot.
  struct Slab {
    std::vector<Packet> packets;
    std::vector<std::uint32_t> free;
  };

  /// Barrier hook: moves every channel's posts into its staged buffer and
  /// returns their earliest fire time.  Coordinator, workers quiesced.
  sim::TimeNs stage();
  /// Window hook: pushes every message staged for `dst` into its queue.
  /// Runs on the thread that runs shard `dst`.
  void drain(int dst);
  void deliver(int dst_shard, std::uint32_t slot, Node* dst);
  Channel& channel(int src, int dst) {
    return *channels_[static_cast<std::size_t>(src * shards_ + dst)];
  }

  sim::ShardedSimulator& engine_;
  const int shards_;
  std::vector<std::unique_ptr<Channel>> channels_;  // [src * shards_ + dst]
  std::vector<Slab> slabs_;                         // per destination shard
};

/// Rebinds every link of `topo` onto its shard's simulator and routes
/// cross-shard deliveries through `router`.  Must run after the fabric is
/// built and before any traffic.  Throws std::logic_error if a cross-shard
/// link is shorter than the plan's lookahead (the conservative bound would
/// be unsound).
void apply_shard_plan(Topology& topo, const ShardPlan& plan,
                      sim::ShardedSimulator& engine, ShardRouter& router);

}  // namespace numfabric::net
