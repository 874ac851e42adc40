// One drawn workload for both fidelities.
//
// Each dual-fidelity family (Poisson FCT, traffic patterns, trace replay)
// has a packet runner and a flow-fluid twin (exp/flow_fidelity.h).  Its
// planner here does the family's seeded draw and the per-flow ECMP pick
// (pair_paths + net::ecmp_index with flow id i + 1) exactly once.  The
// packet runner turns the plan into transport::FlowSpecs; the flow runner
// and the fluid oracle turn the same plan into flowsim::FlowSimFlows.  Flow
// i is therefore the same flow on the same path at either fidelity by
// construction.  Packet-only runners that number their flows 1..n the same
// way (Fig. 7's FCT comparison, the contended-fabric family) build their
// plans with add_flow too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exp/common.h"
#include "exp/dynamic_workload.h"
#include "exp/traffic_experiment.h"
#include "flowsim/flow_sim_engine.h"
#include "transport/flow.h"
#include "workload/trace.h"

namespace numfabric::exp {

struct FlowPlan {
  struct Flow {
    net::Host* src = nullptr;
    net::Host* dst = nullptr;
    sim::TimeNs arrival = 0;
    std::uint64_t size_bytes = 0;
    /// Graph link ids, which are also the materialized topology's dense
    /// link indices.
    std::vector<int> links;
  };
  std::vector<Flow> flows;

  /// Appends one flow on its ECMP path.  Flow i hashes flow id i + 1, the id
  /// the packet fabric assigns the i-th flow it adds.
  void add_flow(BuiltFabric& fabric, net::Host* src, net::Host* dst,
                sim::TimeNs arrival, std::uint64_t size_bytes);

  /// Flow i for the packet substrate (object path via to_packet_path).
  transport::FlowSpec packet_spec(const BuiltFabric& fabric, std::size_t i,
                                  const num::UtilityFunction* utility) const;

  /// Every flow for the fluid engine, in plan order.
  std::vector<flowsim::FlowSimFlow> fluid_flows(
      const num::UtilityFunction* utility) const;
};

// Each planner needs a materialized fabric (hosts and host_node filled).

/// Poisson arrivals: workload::poisson_flows seeded with options.seed.
FlowPlan plan_poisson(BuiltFabric& fabric,
                      const DynamicWorkloadOptions& options);

/// The traffic pattern's host pairs (seeded with options.seed), every flow
/// arriving at t = 0 with options.flow_size_bytes (0 in rate mode).
FlowPlan plan_traffic(BuiltFabric& fabric, const TrafficOptions& options);

/// Trace rows, arrivals rounded to the nanosecond.  Throws
/// std::invalid_argument when a host index lies outside [0, hosts).
FlowPlan plan_trace(BuiltFabric& fabric,
                    const std::vector<workload::TraceFlow>& trace);

}  // namespace numfabric::exp
