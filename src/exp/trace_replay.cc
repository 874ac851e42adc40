#include "exp/trace_replay.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "exp/common.h"
#include "exp/flow_plan.h"
#include "num/utility.h"
#include "sim/simulator.h"

namespace numfabric::exp {

TraceReplayResult run_trace_replay(const TraceReplayOptions& options) {
  sim::Simulator sim;
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built = plan_fabric(options.topology, std::nullopt, 8);
  materialize_fabric(built, topo, fabric.queue_factory());
  fabric.attach_agents(topo);
  const FlowPlan plan = plan_trace(built, options.trace);

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.flows.size());
  int completed = 0;
  fabric.set_on_complete([&completed](transport::Flow&) { ++completed; });
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    flows.push_back(fabric.add_flow(plan.packet_spec(built, i, &utility)));
  }

  while (completed < static_cast<int>(options.trace.size()) &&
         sim.now() < options.horizon && sim.pending()) {
    sim.run_until(std::min(sim.now() + sim::millis(5), options.horizon));
  }

  TraceReplayResult result;
  result.sim_events = sim.events_executed();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    TraceReplayResult::PerFlow row;
    row.src = options.trace[i].src;
    row.dst = options.trace[i].dst;
    row.size_bytes = options.trace[i].size_bytes;
    row.arrival_seconds = options.trace[i].arrival_seconds;
    row.completed = flows[i]->completed();
    if (row.completed) {
      row.fct_seconds = sim::to_seconds(flows[i]->fct());
      ++result.completed;
    } else {
      ++result.incomplete;
    }
    result.flows.push_back(row);
  }
  return result;
}

}  // namespace numfabric::exp
