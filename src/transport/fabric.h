// Fabric: per-scheme wiring of queues, the link control plane and flow
// endpoints.
//
// Usage:
//   sim::Simulator sim;
//   transport::Fabric fabric(sim, {.scheme = Scheme::kNumFabric});
//   net::Topology topo(sim);
//   topo.materialize(net::make_leaf_spine({}), fabric.queue_factory());
//   fabric.attach_agents(topo);            // ControlPlane: xWI/DGD/RCP* state
//   fabric.add_flow(spec);                 // schedules start_time
//   sim.run_until(sim::millis(50));
//
// The Fabric owns every Flow (and through it the scheme-specific sender and
// the generic receiver) and handles host handler registration, flow ids,
// completion bookkeeping and multipath group membership.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/shard_plan.h"
#include "net/topology.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "transport/control_plane.h"
#include "transport/dctcp/dctcp_sender.h"
#include "transport/dgd/dgd_sender.h"
#include "transport/flow.h"
#include "transport/numfabric/config.h"
#include "transport/numfabric/group_registry.h"
#include "transport/pfabric/pfabric_sender.h"
#include "transport/rcp/rcp_sender.h"

namespace numfabric::transport {

struct FabricOptions {
  Scheme scheme = Scheme::kNumFabric;
  NumFabricConfig numfabric;
  DgdConfig dgd;
  RcpConfig rcp;
  DctcpConfig dctcp;
  PFabricConfig pfabric;
  /// Per-port buffering (§6: 1 MB to keep drops out of the comparison).
  /// pFabric ignores this and uses its own shallow queues.
  std::size_t queue_capacity_bytes = 1'000'000;
  /// Destination-side rate filter time constant (§6.1: 80 us).
  sim::TimeNs receiver_rate_tau = sim::micros(80);
  /// NUMFabric only: > 0 replaces exact STFQ with the §8 multi-queue
  /// approximation using this many weight bands (ablation).
  int discrete_wfq_bands = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, FabricOptions options);

  /// Queue factory matching the scheme (WFQ for NUMFabric, FIFO+ECN for
  /// DCTCP, priority for pFabric, plain FIFO otherwise).  Pass to the
  /// topology builders.
  net::QueueFactory queue_factory() const { return queue_factory(0); }

  /// Same, with an explicit per-port buffer override in bytes (0 = the
  /// configured queue_capacity_bytes) — lets topologies size edge and core
  /// tiers differently.  pFabric keeps its own shallow queues regardless.
  net::QueueFactory queue_factory(std::size_t capacity_bytes) const;

  /// Attaches the scheme's per-link control state: builds the ControlPlane
  /// over every link of `topo` (a no-op for DCTCP and pFabric, whose state
  /// lives in the queues and hosts).  Call once, after the topology is fully
  /// built and before flows start.
  void attach_agents(net::Topology& topo);

  /// The control plane, once attach_agents has run.  Non-null exactly for
  /// the schemes with per-link control state: NUMFabric, DGD and RCP*.
  const ControlPlane* control_plane() const { return control_plane_.get(); }

  /// Registers a flow; endpoints are created and started at spec.start_time.
  /// If spec.id is 0 an id is assigned.  Returns a stable pointer.
  Flow* add_flow(FlowSpec spec);

  /// Stops a long-running flow (it stops sending; in-flight traffic drains).
  void stop_flow(Flow& flow);

  const std::vector<std::unique_ptr<Flow>>& flows() const { return flows_; }

  /// Invoked when any flow completes (after the Flow is marked completed).
  void set_on_complete(std::function<void(Flow&)> callback) {
    on_complete_ = std::move(callback);
  }

  GroupRegistry& groups() { return groups_; }
  const FabricOptions& options() const { return options_; }
  sim::Simulator& sim() { return sim_; }

  /// Sharded mode: flow endpoints are constructed on their host's shard
  /// simulator (per `plan`) instead of the global one, and the cross-shard
  /// half of completion bookkeeping is deferred to `engine`'s next barrier.
  /// Call once, after attach_agents and before any flow starts.  `plan` and
  /// `engine` must outlive the fabric.
  void set_sharding(const net::ShardPlan* plan, sim::ShardedSimulator* engine);

 private:
  void start_flow(Flow& flow);
  sim::Simulator& endpoint_sim(const net::Host* host);
  std::unique_ptr<SenderBase> make_sender(sim::Simulator& sim,
                                          const FlowSpec& spec,
                                          SenderCallbacks callbacks);

  sim::Simulator& sim_;
  FabricOptions options_;
  std::unique_ptr<ControlPlane> control_plane_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::unordered_map<net::FlowId, Flow*> by_id_;
  GroupRegistry groups_;
  std::function<void(Flow&)> on_complete_;
  net::FlowId next_flow_id_ = 1;
  // Sharded-mode wiring (null in serial runs).
  const net::ShardPlan* shard_plan_ = nullptr;
  sim::ShardedSimulator* engine_ = nullptr;
  // Completion runs on the source host's shard; unregistering the flow on
  // the destination host would mutate another shard's state, so it is
  // queued here and drained by a barrier hook on the coordinator.
  std::mutex pending_unregister_mu_;
  std::vector<std::pair<net::Host*, net::FlowId>> pending_unregister_;
};

}  // namespace numfabric::transport
