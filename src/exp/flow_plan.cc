#include "exp/flow_plan.h"

#include <stdexcept>
#include <string>

#include "net/routing.h"
#include "sim/random.h"
#include "workload/scenarios.h"

namespace numfabric::exp {

void FlowPlan::add_flow(BuiltFabric& fabric, net::Host* src, net::Host* dst,
                        sim::TimeNs arrival, std::uint64_t size_bytes) {
  const auto& paths = pair_paths(fabric, fabric.host_node.at(src),
                                 fabric.host_node.at(dst));
  const auto id = static_cast<net::FlowId>(flows.size() + 1);
  flows.push_back({src, dst, arrival, size_bytes,
                   paths[net::ecmp_index(paths.size(), id)]});
}

transport::FlowSpec FlowPlan::packet_spec(
    const BuiltFabric& fabric, std::size_t i,
    const num::UtilityFunction* utility) const {
  const Flow& flow = flows[i];
  transport::FlowSpec spec;
  spec.src = flow.src;
  spec.dst = flow.dst;
  spec.size_bytes = flow.size_bytes;
  spec.start_time = flow.arrival;
  spec.utility = utility;
  spec.path = to_packet_path(fabric, flow.links);
  return spec;
}

std::vector<flowsim::FlowSimFlow> FlowPlan::fluid_flows(
    const num::UtilityFunction* utility) const {
  std::vector<flowsim::FlowSimFlow> fluid;
  fluid.reserve(flows.size());
  for (const Flow& flow : flows) {
    fluid.push_back({sim::to_seconds(flow.arrival),
                     static_cast<double>(flow.size_bytes), flow.links,
                     utility});
  }
  return fluid;
}

FlowPlan plan_poisson(BuiltFabric& fabric,
                      const DynamicWorkloadOptions& options) {
  sim::Rng rng(options.seed);
  const auto arrivals = workload::poisson_flows(
      fabric.mat.hosts, fabric.host_rate_bps, options.load, *options.sizes,
      options.flow_count, rng);
  FlowPlan plan;
  plan.flows.reserve(arrivals.size());
  for (const auto& arrival : arrivals) {
    plan.add_flow(fabric, arrival.pair.src, arrival.pair.dst, arrival.arrival,
                  arrival.size_bytes);
  }
  return plan;
}

FlowPlan plan_traffic(BuiltFabric& fabric, const TrafficOptions& options) {
  const std::vector<net::Host*>& hosts = fabric.mat.hosts;
  sim::Rng rng(options.seed);
  std::vector<workload::HostPair> pairs;
  switch (options.pattern) {
    case TrafficPattern::kIncast:
      pairs = workload::incast_pairs(hosts, options.incast_fanin, rng);
      break;
    case TrafficPattern::kPermutation:
      pairs = workload::permutation_pairs(hosts, rng);
      break;
    case TrafficPattern::kAllToAll:
      pairs = workload::all_to_all_pairs(hosts);
      break;
  }
  FlowPlan plan;
  plan.flows.reserve(pairs.size());
  for (const workload::HostPair& pair : pairs) {
    plan.add_flow(fabric, pair.src, pair.dst, 0, options.flow_size_bytes);
  }
  return plan;
}

FlowPlan plan_trace(BuiltFabric& fabric,
                    const std::vector<workload::TraceFlow>& trace) {
  const std::vector<net::Host*>& hosts = fabric.mat.hosts;
  const int host_count = static_cast<int>(hosts.size());
  FlowPlan plan;
  plan.flows.reserve(trace.size());
  for (const workload::TraceFlow& entry : trace) {
    for (const int host : {entry.src, entry.dst}) {
      if (host < 0 || host >= host_count) {
        throw std::invalid_argument(
            "trace flow " + std::to_string(plan.flows.size()) + ": host " +
            std::to_string(host) + " is outside the topology (" +
            std::to_string(host_count) + " hosts)");
      }
    }
    const auto arrival =
        static_cast<sim::TimeNs>(entry.arrival_seconds * sim::kSecond + 0.5);
    plan.add_flow(fabric, hosts[static_cast<std::size_t>(entry.src)],
                  hosts[static_cast<std::size_t>(entry.dst)], arrival,
                  entry.size_bytes);
  }
  return plan;
}

}  // namespace numfabric::exp
