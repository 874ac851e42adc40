#include "net/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/node.h"
#include "net/shard_plan.h"
#include "sim/substrate_stats.h"

namespace numfabric::net {

Link::Link(sim::Simulator& sim, std::string name, double rate_bps,
           sim::TimeNs delay, std::unique_ptr<Queue> queue, Node* dst)
    : sim_(&sim),
      name_(std::move(name)),
      rate_bps_(rate_bps),
      delay_(delay),
      queue_(std::move(queue)),
      dst_(dst) {
  if (rate_bps_ <= 0) throw std::invalid_argument("Link: rate must be > 0");
  if (!queue_) throw std::invalid_argument("Link: queue must not be null");
  if (dst_ == nullptr) throw std::invalid_argument("Link: dst must not be null");
}

void Link::set_rate_bps(double rate_bps) {
  if (rate_bps <= 0) throw std::invalid_argument("Link: rate must be > 0");
  rate_bps_ = rate_bps;
}

void Link::send(Packet&& packet) {
  // Inline control-plane enqueue hook: an index-addressed store into the
  // ControlPlane's SoA arrays (xWI tracks the min residual of DATA packets).
  if (control_mode_ == ControlStamp::kXwiPrice && packet.is_data() &&
      std::isfinite(packet.normalized_residual)) {
    double& min_res = control_->min_residual[control_slot_];
    min_res = std::min(min_res, packet.normalized_residual);
    control_->saw_residual[control_slot_] = 1;
  }
  if (!queue_->enqueue(std::move(packet))) return;  // dropped; stats in Queue
  try_start_tx();
}

void Link::try_start_tx() {
  if (busy_) return;
  auto next = queue_->dequeue();
  if (!next) return;
  busy_ = true;
  // Inline control-plane dequeue hook: count serviced bytes and stamp the
  // per-link value (price or feedback) into the data packet's header.
  if (control_mode_ != ControlStamp::kNone) {
    control_->bytes_serviced[control_slot_] += next->size;
    if (next->is_data()) {
      if (control_mode_ == ControlStamp::kXwiPrice) {
        next->path_price += control_->stamp[control_slot_];
        next->path_len += 1;
      } else {
        next->path_feedback += control_->stamp[control_slot_];
      }
    }
  }
  bytes_sent_ += next->size;
  auto& stats = sim::substrate_stats();
  ++stats.packets_forwarded;
  stats.bytes_forwarded += next->size;
  const sim::TimeNs tx = sim::transmission_time(next->size, rate_bps_);
  // Serialization finishes at +tx: free the transmitter and continue.
  sim_->schedule_in(tx, [this] {
    busy_ = false;
    try_start_tx();
  });
  // The packet reaches the peer a propagation delay after serialization.
  if (cross_router_ != nullptr) {
    // The peer lives on another shard: the delivery becomes a timestamped
    // message carrying the order key this push would have had serially.
    cross_router_->post(cross_src_shard_, cross_dst_shard_,
                        sim_->now() + tx + delay_, sim_->consume_push_key(),
                        dst_, std::move(*next));
  } else {
    // Local delivery: the packet waits in the in-flight ring rather than in
    // a heap-allocated closure.
    inflight_.push_back(std::move(*next));
    sim_->schedule_in(tx + delay_, [this] { deliver_front(); });
  }
}

void Link::deliver_front() {
  Packet p = std::move(inflight_.front());
  inflight_.pop_front();
  dst_->receive(std::move(p));
}

}  // namespace numfabric::net
