#include "net/link.h"

#include <algorithm>
#include <cassert>
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
  if (!sim::valid_rate_bps(rate_bps_)) {
    throw std::invalid_argument("Link: rate must be > 0");
  }
  if (!queue_) throw std::invalid_argument("Link: queue must not be null");
  if (dst_ == nullptr) throw std::invalid_argument("Link: dst must not be null");
}

void Link::set_rate_bps(double rate_bps) {
  if (!sim::valid_rate_bps(rate_bps)) {
    throw std::invalid_argument("Link: rate must be > 0");
  }
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
  if (finish_reserved_) {
    // The packet in service left its finish unpushed.  If that finish is
    // still ahead, this packet waits for it; otherwise the transmitter went
    // idle at tx_end_ and this packet starts at once.
    finish_reserved_ = false;
    if (sim_->is_ahead(tx_end_, finish_key_)) {
      push_finish();
      return;
    }
    busy_ = false;
  }
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
  assert(sim_->now() >= tx_end_);  // one packet in service at a time
  tx_end_ = sim_->now() + tx;
  // Serialization finishes at tx_end_.  Its key is taken before the
  // delivery's, as if the finish were pushed here.
  sim_->reserve_push_key(finish_key_);
  // The packet reaches the peer a propagation delay after serialization.
  if (cross_router_ != nullptr) {
    // The peer lives on another shard: the delivery becomes a timestamped
    // message carrying the order key this push would have had serially.
    cross_router_->post(cross_src_shard_, cross_dst_shard_, tx_end_ + delay_,
                        sim_->consume_push_key(), dst_, std::move(*next));
  } else {
    // Local delivery: the packet waits in the in-flight ring rather than in
    // a heap-allocated closure.
    inflight_.push_back(std::move(*next));
    sim_->schedule_in(tx + delay_, [this] { deliver_front(); });
  }
  // The finish matters only to a packet waiting for it: push it now if one
  // is queued, else leave it to a send() that arrives before it.  Outside
  // any event (setup, between runs) it is pushed regardless, so is_ahead()
  // never has to place a finish reserved between runs.
  if (!queue_->empty() || !sim_->in_event()) {
    push_finish();
  } else {
    finish_reserved_ = true;
  }
}

void Link::push_finish() {
  sim_->schedule_reserved(tx_end_, finish_key_, [this] {
    busy_ = false;
    try_start_tx();
  });
}

void Link::deliver_front() {
  Packet p = std::move(inflight_.front());
  inflight_.pop_front();
  dst_->receive(std::move(p));
}

}  // namespace numfabric::net
