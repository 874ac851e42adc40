#include "exp/fct_experiment.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "exp/common.h"
#include "exp/dynamic_workload.h"
#include "exp/flow_plan.h"
#include "num/utility.h"
#include "stats/summary.h"

namespace numfabric::exp {
namespace {

struct SchemeOutcome {
  double mean_norm_fct = 0;
  int completed = 0;
  int incomplete = 0;
};

/// Best possible FCT for `size` on an idle path: serialization at the NIC
/// plus the base round trip (the normalizer in Fig. 7).
double ideal_fct_seconds(std::uint64_t size_bytes, double nic_bps,
                         sim::TimeNs base_rtt) {
  return static_cast<double>(size_bytes) * 8.0 / nic_bps +
         sim::to_seconds(base_rtt);
}

SchemeOutcome run_one(transport::Scheme scheme,
                      const FctExperimentOptions& options, double load) {
  sim::Simulator sim;
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = scheme;
  if (scheme == transport::Scheme::kNumFabric) {
    // Footnote 7 + §6.2: slow the control loops 2x for epsilon ~ 0.125 and
    // start with an initial window of one BDP like pFabric.
    fabric_options.numfabric =
        fabric_options.numfabric.slowed_down(options.slowdown);
    const double bdp_bytes =
        options.topology.host_rate_bps *
        sim::to_seconds(fabric_options.numfabric.base_rtt) / 8.0;
    fabric_options.numfabric.initial_window_bytes =
        static_cast<std::uint64_t>(bdp_bytes);
    // A flow that has not yet heard a price should act as if the price were
    // ~0; under the steep FCT utility U'^{-1}(0+) saturates at the weight
    // cap.  Starting mice at maximum weight is the NUM analogue of pFabric
    // treating a fresh flow (small remaining size) as top priority — mice
    // finish within their first RTTs, before any price feedback could
    // prioritize them.
    fabric_options.numfabric.initial_weight =
        fabric_options.numfabric.max_weight;
  }
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built = plan_fabric(options.topology, std::nullopt, 0);
  materialize_fabric(built, topo, fabric.queue_factory());
  fabric.attach_agents(topo);

  // Same seed for both schemes => identical arrivals, sizes and paths.
  DynamicWorkloadOptions workload;
  workload.load = load;
  workload.flow_count = options.flow_count;
  workload.seed = options.seed;
  const FlowPlan plan = plan_poisson(built, workload);

  std::vector<std::unique_ptr<num::AlphaFairUtility>> utilities;
  utilities.reserve(plan.flows.size());
  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.flows.size());
  int completed = 0;
  fabric.set_on_complete([&completed](transport::Flow&) { ++completed; });

  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    utilities.push_back(num::make_fct_utility(
        static_cast<double>(plan.flows[i].size_bytes), options.epsilon));
    flows.push_back(fabric.add_flow(
        plan.packet_spec(built, i, utilities.back().get())));
  }

  while (completed < static_cast<int>(flows.size()) &&
         sim.now() < options.horizon && sim.pending()) {
    sim.run_until(std::min(sim.now() + sim::millis(5), options.horizon));
  }

  SchemeOutcome outcome;
  std::vector<double> normalized;
  for (const transport::Flow* flow : flows) {
    if (!flow->completed()) {
      ++outcome.incomplete;
      continue;
    }
    const double ideal = ideal_fct_seconds(flow->spec().size_bytes,
                                           built.host_rate_bps, built.base_rtt);
    normalized.push_back(sim::to_seconds(flow->fct()) / ideal);
  }
  outcome.completed = static_cast<int>(normalized.size());
  outcome.mean_norm_fct = normalized.empty() ? 0.0 : stats::mean(normalized);
  return outcome;
}

}  // namespace

FctExperimentResult run_fct_experiment(const FctExperimentOptions& options) {
  FctExperimentResult result;
  for (double load : options.loads) {
    FctExperimentResult::Row row;
    row.load = load;
    const SchemeOutcome numfabric =
        run_one(transport::Scheme::kNumFabric, options, load);
    const SchemeOutcome pfabric =
        run_one(transport::Scheme::kPFabric, options, load);
    row.numfabric_mean_norm_fct = numfabric.mean_norm_fct;
    row.pfabric_mean_norm_fct = pfabric.mean_norm_fct;
    row.numfabric_completed = numfabric.completed;
    row.pfabric_completed = pfabric.completed;
    row.numfabric_incomplete = numfabric.incomplete;
    row.pfabric_incomplete = pfabric.incomplete;
    result.rows.push_back(row);
  }
  return result;
}

}  // namespace numfabric::exp
