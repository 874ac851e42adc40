// A unidirectional link: queue + serializer + propagation delay.
//
// Store-and-forward: a packet occupies the transmitter for size*8/rate, then
// arrives at the peer node `delay` later.
//
// The serialization finish is an event only when a packet waits for it.  At
// transmit start the link reserves the finish's order key
// (Simulator::reserve_push_key) and records its time, tx_end; it pushes the
// finish with that key at once if the queue still holds a packet, else only
// when a later send() arrives while the finish is still ahead
// (Simulator::is_ahead).  A send() that finds it behind starts at once.  A
// finish that would find the queue empty — ~30% of a packet run's events —
// is never pushed, and every event that is keeps the key it would have had
// with an eager finish, so event order is unchanged (src/sim/README.md,
// "Reserved finish keys").  Transmit starts outside any event (setup,
// between runs) push the finish eagerly.
//
// Per-link protocol state (xWI prices, DGD prices, RCP* fair-share rates)
// lives in a transport::ControlPlane, the paper's per-egress-port computation
// (Fig. 3): a link wired to it by attach_control() records observations and
// stamps headers inline as packets are enqueued and dequeued.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "util/ring_buffer.h"

namespace numfabric::net {

class Node;
class ShardRouter;

/// What the inline control-plane hooks do on this link's hot path (which
/// observation the data path records and which packet field the per-link
/// stamp accumulates into).  See transport::ControlPlane.
enum class ControlStamp : std::uint8_t {
  kNone,
  /// xWI: track the min normalized residual over DATA enqueues; stamp the
  /// link price into path_price (and bump path_len) on DATA dequeue.
  kXwiPrice,
  /// DGD / RCP*: accumulate the per-link value into path_feedback on DATA
  /// dequeue (DGD: the price; RCP*: R^-alpha, precomputed per tick).
  kFeedback,
};

/// Dense per-link control-plane state, indexed by each link's slot id.  The
/// owning transport::ControlPlane sizes the arrays once at attach time (they
/// never move afterwards); links write observations straight into them from
/// the forwarding hot path — an index-addressed store, no virtual dispatch —
/// and the single batched tick sweeps them in slot order.
struct LinkControlArrays {
  const double* stamp = nullptr;         // per-DATA-packet price / feedback
  double* min_residual = nullptr;        // xWI: min over DATA enqueues
  std::uint8_t* saw_residual = nullptr;  // xWI: any finite residual seen
  std::uint64_t* bytes_serviced = nullptr;
};

class Link {
 public:
  Link(sim::Simulator& sim, std::string name, double rate_bps,
       sim::TimeNs delay, std::unique_ptr<Queue> queue, Node* dst);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet to this link's queue and starts transmitting if idle.
  /// Call it from an event of the link's simulator (or of the engine's
  /// global stream), during setup, or between runs.
  void send(Packet&& packet);

  const std::string& name() const { return name_; }
  double rate_bps() const { return rate_bps_; }

  /// Changes the link speed at runtime (Fig. 10 varies a link's capacity
  /// mid-experiment).  Applies from the next serialized packet on; a packet
  /// already in flight finishes at the old rate.
  void set_rate_bps(double rate_bps);
  sim::TimeNs delay() const { return delay_; }
  Node* dst() const { return dst_; }
  Queue& queue() { return *queue_; }
  const Queue& queue() const { return *queue_; }

  /// The opposite-direction link of the same cable (set by Topology).
  Link* twin() const { return twin_; }
  void set_twin(Link* twin) { twin_ = twin; }

  /// Wires this link into a batched control plane: the forwarding hot path
  /// reads/writes `arrays` at index `slot` according to `mode`.  The caller
  /// guarantees the arrays outlive the link's last forwarded packet and stay
  /// at a fixed address.  Pass kNone/nullptr to detach.
  void attach_control(ControlStamp mode, const LinkControlArrays* arrays,
                      std::uint32_t slot) {
    control_mode_ = mode;
    control_ = mode == ControlStamp::kNone ? nullptr : arrays;
    control_slot_ = slot;
  }
  bool has_control_slot() const { return control_mode_ != ControlStamp::kNone; }
  std::uint32_t control_slot() const { return control_slot_; }

  /// Total bytes serialized since construction (for utilization metrics).
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // --- sharded-engine wiring (see net/shard_plan.h) ------------------------

  /// Moves this link onto another event stream (its owning shard's
  /// simulator).  Must happen before any packet is offered.
  void rebind_sim(sim::Simulator& sim) { sim_ = &sim; }

  /// Marks the link's destination node as living on a different shard:
  /// deliveries are posted to `router` as timestamped cross-shard messages
  /// instead of being scheduled locally.  The serialization-finish event,
  /// when pushed, stays local (the transmitter is shard-owned state).
  void set_cross_shard(ShardRouter* router, int src_shard, int dst_shard) {
    cross_router_ = router;
    cross_src_shard_ = src_shard;
    cross_dst_shard_ = dst_shard;
  }

 private:
  void try_start_tx();
  /// Pushes the serialization finish with the key reserved at its start.
  void push_finish();
  void deliver_front();

  sim::Simulator* sim_;
  std::string name_;
  double rate_bps_;
  sim::TimeNs delay_;
  std::unique_ptr<Queue> queue_;
  Node* dst_;
  Link* twin_ = nullptr;
  // Batched control plane wiring (see attach_control).
  const LinkControlArrays* control_ = nullptr;
  std::uint32_t control_slot_ = 0;
  ControlStamp control_mode_ = ControlStamp::kNone;
  // Transmitter.  busy_ holds from a transmit start until its finish event
  // runs — or, when that finish was never pushed (finish_reserved_), until
  // a send() finds it behind the running event.
  bool busy_ = false;
  bool finish_reserved_ = false;
  sim::TimeNs tx_end_ = 0;     // serialization finish of the last start
  sim::PushKey finish_key_{};  // its reserved order key
  std::uint64_t bytes_sent_ = 0;
  // Cross-shard delivery (null for serial runs and intra-shard links).
  ShardRouter* cross_router_ = nullptr;
  int cross_src_shard_ = 0;
  int cross_dst_shard_ = 0;
  // Packets serialized but not yet delivered, in transmit order.  Delivery
  // times are (serialization finish + constant delay) and finishes are
  // strictly increasing, so deliveries pop FIFO.  Keeping the packet here —
  // rather than captured by value in the delivery closure — is what makes
  // per-packet forwarding allocation-free: the delivery event captures only
  // `this`, and the ring's slots are reused.
  util::RingBuffer<Packet> inflight_;
};

}  // namespace numfabric::net
