#include "exp/pooling_experiment.h"

#include <algorithm>
#include <optional>

#include "exp/common.h"
#include "num/utility.h"
#include "transport/receiver.h"
#include "workload/scenarios.h"

namespace numfabric::exp {
namespace {

PoolingResult::Row run_one(int subflows, const PoolingOptions& options) {
  sim::Simulator sim;
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = transport::Scheme::kNumFabric;
  fabric_options.numfabric.resource_pooling = options.resource_pooling;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built = plan_fabric(options.topology, std::nullopt, 0);
  materialize_fabric(built, topo, fabric.queue_factory());
  fabric.attach_agents(topo);

  sim::Rng rng(options.seed);
  const auto pairs = workload::permutation_pairs(built.mat.hosts, rng);
  const num::AlphaFairUtility utility(1.0);  // proportional fairness

  // Per logical flow: k sub-flows on independently drawn random paths
  // ("each sub-flow hashed onto a path at random").
  std::vector<std::vector<const transport::Flow*>> flows_by_pair(pairs.size());
  for (std::size_t pair_index = 0; pair_index < pairs.size(); ++pair_index) {
    const workload::HostPair& pair = pairs[pair_index];
    const auto& paths = pair_paths(built, built.host_node.at(pair.src),
                                   built.host_node.at(pair.dst));
    for (int s = 0; s < subflows; ++s) {
      transport::FlowSpec spec;
      spec.src = pair.src;
      spec.dst = pair.dst;
      spec.size_bytes = 0;  // long-running
      spec.start_time = 0;
      spec.utility = &utility;
      spec.path = to_packet_path(built, paths[rng.index(paths.size())]);
      spec.group = options.resource_pooling ? pair_index + 1 : 0;
      flows_by_pair[pair_index].push_back(fabric.add_flow(std::move(spec)));
    }
  }

  // Measure goodput between warmup and warmup+measure.
  std::vector<std::uint64_t> start_bytes(pairs.size(), 0);
  sim.schedule_at(options.warmup, [&] {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      for (const transport::Flow* flow : flows_by_pair[p]) {
        start_bytes[p] += flow->receiver().total_bytes();
      }
    }
  });
  sim.run_until(options.warmup + options.measure);

  PoolingResult::Row row;
  row.subflows = subflows;
  const double optimal_bps =
      options.topology.host_rate_bps * static_cast<double>(pairs.size());
  double total_bps = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    std::uint64_t end_bytes = 0;
    for (const transport::Flow* flow : flows_by_pair[p]) {
      end_bytes += flow->receiver().total_bytes();
    }
    const double rate =
        window_rate_bps(start_bytes[p], end_bytes, options.measure);
    row.per_flow_fraction.push_back(rate / options.topology.host_rate_bps);
    total_bps += rate;
  }
  row.total_throughput_fraction = total_bps / optimal_bps;
  std::sort(row.per_flow_fraction.begin(), row.per_flow_fraction.end());
  return row;
}

}  // namespace

PoolingResult run_pooling_experiment(const PoolingOptions& options) {
  PoolingResult result;
  for (int subflows : options.subflow_counts) {
    result.rows.push_back(run_one(subflows, options));
  }
  return result;
}

}  // namespace numfabric::exp
