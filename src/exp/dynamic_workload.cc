#include "exp/dynamic_workload.h"

#include <algorithm>
#include <vector>

#include "exp/common.h"
#include "exp/flow_plan.h"
#include "num/fluid_fct_oracle.h"
#include "num/utility.h"

namespace numfabric::exp {

const char* const kBdpBinLabels[5] = {"(0-5)", "(5-10)", "(10-100)", "(100-1K)",
                                      "(1K-10K)"};

int bdp_bin(double size_bytes, double bdp_bytes) {
  const double bdps = size_bytes / bdp_bytes;
  if (bdps <= 5) return 0;
  if (bdps <= 10) return 1;
  if (bdps <= 100) return 2;
  if (bdps <= 1000) return 3;
  if (bdps <= 10000) return 4;
  return -1;
}

DynamicWorkloadResult run_dynamic_workload(const DynamicWorkloadOptions& options) {
  sim::Simulator sim;
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built =
      plan_fabric(options.topology, options.jellyfish, options.k_paths);
  materialize_fabric(built, topo, fabric.queue_factory());
  fabric.attach_agents(topo);
  const FlowPlan plan = plan_poisson(built, options);

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.flows.size());
  int completed = 0;
  fabric.set_on_complete([&completed](transport::Flow&) { ++completed; });
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    flows.push_back(fabric.add_flow(plan.packet_spec(built, i, &utility)));
  }

  // Run until everything finishes (or the horizon hits).
  while (completed < static_cast<int>(flows.size()) &&
         sim.now() < options.horizon && sim.pending()) {
    sim.run_until(std::min(sim.now() + sim::millis(5), options.horizon));
  }

  // Fluid oracle on the same plan: ideal FCT per flow.
  num::NumSolverOptions solver_options;
  solver_options.tolerance = 1e-8;
  solver_options.policy = num::ExecutionPolicy::parallel(options.solver_threads);
  const num::FluidFctResult oracle =
      num::fluid_fct_oracle(plan.fluid_flows(&utility),
                            graph_capacities(built.graph), solver_options);

  DynamicWorkloadResult result;
  result.bdp_bytes =
      built.host_rate_bps * sim::to_seconds(built.base_rtt) / 8.0;
  result.sim_events = sim.events_executed();
  // The fluid oracle has no propagation delay; every real flow pays at
  // least one fabric traversal.  Charging the oracle the base RTT keeps the
  // "ideal rate" meaningful for flows of a few packets (otherwise the
  // smallest bin shows every scheme at deviation ~ -1 regardless of merit).
  const double oracle_latency = sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!flows[i]->completed()) {
      ++result.incomplete;
      continue;
    }
    DynamicWorkloadResult::PerFlow row;
    row.size_bytes = flows[i]->spec().size_bytes;
    row.fct_seconds = sim::to_seconds(flows[i]->fct());
    row.rate_bps = static_cast<double>(row.size_bytes) * 8.0 / row.fct_seconds;
    row.ideal_rate_bps = static_cast<double>(row.size_bytes) * 8.0 /
                         (oracle.fct_seconds[i] + oracle_latency);
    result.flows.push_back(row);
  }
  return result;
}

}  // namespace numfabric::exp
