#include "transport/fabric.h"

#include <stdexcept>
#include <utility>

#include "net/discrete_wfq_queue.h"
#include "net/drop_tail_queue.h"
#include "net/pfabric_queue.h"
#include "net/routing.h"
#include "net/wfq_queue.h"
#include "transport/numfabric/swift_sender.h"
#include "transport/receiver.h"
#include "transport/sender_base.h"

namespace numfabric::transport {

Fabric::Fabric(sim::Simulator& sim, FabricOptions options)
    : sim_(sim), options_(std::move(options)) {}

net::QueueFactory Fabric::queue_factory(std::size_t capacity_bytes) const {
  const std::size_t capacity =
      capacity_bytes > 0 ? capacity_bytes : options_.queue_capacity_bytes;
  switch (options_.scheme) {
    case Scheme::kNumFabric: {
      if (options_.discrete_wfq_bands > 0) {
        const int bands = options_.discrete_wfq_bands;
        const double min_weight = options_.numfabric.min_weight;
        const double max_weight = options_.numfabric.max_weight;
        return [capacity, bands, min_weight, max_weight] {
          return std::make_unique<net::DiscreteWfqQueue>(capacity, bands,
                                                         min_weight, max_weight);
        };
      }
      return [capacity] { return std::make_unique<net::WfqQueue>(capacity); };
    }
    case Scheme::kDgd:
    case Scheme::kRcpStar:
      return [capacity] { return std::make_unique<net::DropTailQueue>(capacity); };
    case Scheme::kDctcp: {
      const std::size_t threshold = options_.dctcp.ecn_threshold_bytes;
      return [capacity, threshold] {
        return std::make_unique<net::DropTailQueue>(capacity, threshold);
      };
    }
    case Scheme::kPFabric: {
      const std::size_t pfabric_capacity = options_.pfabric.queue_capacity_bytes;
      return [pfabric_capacity] {
        return std::make_unique<net::PFabricQueue>(pfabric_capacity);
      };
    }
  }
  throw std::logic_error("Fabric::queue_factory: unknown scheme");
}

void Fabric::attach_agents(net::Topology& topo) {
  control_plane_ = ControlPlane::attach(
      sim_,
      ControlPlane::Params{options_.scheme, options_.numfabric, options_.dgd,
                           options_.rcp},
      topo);
}

std::unique_ptr<SenderBase> Fabric::make_sender(sim::Simulator& sim,
                                                const FlowSpec& spec,
                                                SenderCallbacks callbacks) {
  switch (options_.scheme) {
    case Scheme::kNumFabric:
      return std::make_unique<SwiftSender>(sim, spec, std::move(callbacks),
                                           options_.numfabric, &groups_);
    case Scheme::kDgd:
      return std::make_unique<DgdSender>(sim, spec, std::move(callbacks),
                                         options_.dgd);
    case Scheme::kRcpStar:
      return std::make_unique<RcpSender>(sim, spec, std::move(callbacks),
                                         options_.rcp);
    case Scheme::kDctcp:
      return std::make_unique<DctcpSender>(sim, spec, std::move(callbacks),
                                           options_.dctcp);
    case Scheme::kPFabric:
      return std::make_unique<PFabricSender>(sim, spec, std::move(callbacks),
                                             options_.pfabric);
  }
  throw std::logic_error("Fabric::make_sender: unknown scheme");
}

void Fabric::set_sharding(const net::ShardPlan* plan,
                          sim::ShardedSimulator* engine) {
  shard_plan_ = plan;
  engine_ = engine;
  engine->add_barrier_hook([this] {
    std::lock_guard<std::mutex> lock(pending_unregister_mu_);
    for (const auto& [host, id] : pending_unregister_) {
      host->unregister_flow(id);
    }
    pending_unregister_.clear();
    return sim::ShardedSimulator::kNever;
  });
}

sim::Simulator& Fabric::endpoint_sim(const net::Host* host) {
  if (engine_ == nullptr) return sim_;
  return engine_->shard(shard_plan_->shard_of(host));
}

Flow* Fabric::add_flow(FlowSpec spec) {
  if (spec.src == nullptr || spec.dst == nullptr) {
    throw std::invalid_argument("Fabric::add_flow: null endpoint host");
  }
  if (spec.path.links.empty()) {
    throw std::invalid_argument("Fabric::add_flow: flow has no path");
  }
  if (spec.reverse.links.empty()) spec.reverse = net::reverse_path(spec.path);
  if (spec.id == 0) spec.id = next_flow_id_++;
  if (by_id_.contains(spec.id)) {
    throw std::invalid_argument("Fabric::add_flow: duplicate flow id");
  }

  flows_.push_back(std::make_unique<Flow>(std::move(spec)));
  Flow* flow = flows_.back().get();
  by_id_[flow->spec().id] = flow;

  const sim::TimeNs start_at = flow->spec().start_time;
  if (start_at < sim_.now()) {
    throw std::invalid_argument("Fabric::add_flow: start time in the past");
  }
  if (start_at == sim_.now()) {
    start_flow(*flow);
  } else {
    sim_.schedule_at(start_at, [this, flow] { start_flow(*flow); });
  }
  return flow;
}

void Fabric::start_flow(Flow& flow) {
  const FlowSpec& spec = flow.spec();
  const bool cross_shard =
      engine_ != nullptr &&
      shard_plan_->shard_of(spec.src) != shard_plan_->shard_of(spec.dst);
  SenderCallbacks callbacks;
  callbacks.on_complete = [this, &flow, cross_shard](net::FlowId id,
                                                     sim::TimeNs at) {
    flow.mark_completed(at);
    // Late duplicate ACKs become countable strays rather than dangling
    // handler calls.  Completion fires on the source shard; a cross-shard
    // destination is unregistered at the next barrier instead of touching
    // another shard's host table mid-window.
    flow.spec().src->unregister_flow(id);
    if (cross_shard) {
      std::lock_guard<std::mutex> lock(pending_unregister_mu_);
      pending_unregister_.emplace_back(flow.spec().dst, id);
    } else {
      flow.spec().dst->unregister_flow(id);
    }
    if (on_complete_) on_complete_(flow);
  };

  auto receiver = std::make_unique<Receiver>(endpoint_sim(spec.dst), spec,
                                             options_.receiver_rate_tau);
  auto sender = make_sender(endpoint_sim(spec.src), spec, std::move(callbacks));

  spec.dst->register_flow(spec.id, [receiver_ptr = receiver.get()](net::Packet&& p) {
    receiver_ptr->handle_packet(std::move(p));
  });
  spec.src->register_flow(spec.id, [sender_ptr = sender.get()](net::Packet&& p) {
    sender_ptr->handle_packet(std::move(p));
  });

  flow.attach(std::move(sender), std::move(receiver));
  flow.mark_started();
  flow.sender().start();
}

void Fabric::stop_flow(Flow& flow) {
  if (!flow.attached()) return;
  flow.sender().stop();
}

}  // namespace numfabric::transport
