#include "exp/traffic_experiment.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "exp/common.h"
#include "exp/flow_plan.h"
#include "num/utility.h"
#include "transport/receiver.h"

namespace numfabric::exp {

const char* traffic_pattern_name(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kIncast: return "incast";
    case TrafficPattern::kPermutation: return "permutation";
    case TrafficPattern::kAllToAll: return "all-to-all";
  }
  return "?";
}

TrafficPattern parse_traffic_pattern(const std::string& name) {
  if (name == "incast") return TrafficPattern::kIncast;
  if (name == "permutation") return TrafficPattern::kPermutation;
  if (name == "all-to-all" || name == "shuffle") return TrafficPattern::kAllToAll;
  throw std::invalid_argument("unknown traffic pattern '" + name +
                              "' (expected incast, permutation or all-to-all)");
}

double optimal_goodput_bps(TrafficPattern pattern, double nic_bps,
                           std::size_t flow_count, std::size_t host_count) {
  switch (pattern) {
    case TrafficPattern::kIncast:
      return nic_bps;
    case TrafficPattern::kPermutation:
      return nic_bps * static_cast<double>(flow_count);
    case TrafficPattern::kAllToAll:
      return nic_bps * static_cast<double>(host_count);
  }
  return 0.0;
}

TrafficResult run_traffic_experiment(const TrafficOptions& options) {
  BuiltFabric built = plan_fabric(options.topology, options.jellyfish,
                                  options.k_paths);
  if (options.shards != 1) {
    const std::string obstacle = net::shard_partition_obstacle(built.graph);
    if (!obstacle.empty()) {
      throw std::invalid_argument("--shards=" + std::to_string(options.shards) +
                                  " is not available on this fabric: " + obstacle);
    }
  }
  sim::ShardedSimulator engine(
      net::resolve_shard_count(options.shards, built.tier1_switches));
  sim::Simulator& sim = engine.global();
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  // queue_factory(0) falls back to the scheme's edge capacity, so an unset
  // core buffer just mirrors the edge tier.
  materialize_fabric(built, topo, fabric.queue_factory(),
                     fabric.queue_factory(options.core_buffer_bytes));
  fabric.attach_agents(topo);

  ShardSetup sharding;
  apply_sharding(sharding, engine, topo, fabric, built);

  const FlowPlan plan = plan_traffic(built, options);

  const bool rate_mode = options.flow_size_bytes == 0;
  const num::AlphaFairUtility utility(options.alpha);
  // Completions fire on the source host's shard worker; the count is the
  // only completion state the coordinator polls mid-run.
  std::atomic<int> completed{0};
  fabric.set_on_complete([&completed](transport::Flow&) {
    completed.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.flows.size());
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    flows.push_back(fabric.add_flow(plan.packet_spec(built, i, &utility)));
  }

  TrafficResult result;
  result.flow_count = static_cast<int>(flows.size());

  if (rate_mode) {
    std::vector<std::uint64_t> start_bytes(flows.size(), 0);
    sim.schedule_at(options.warmup, [&] {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        start_bytes[i] = flows[i]->receiver().total_bytes();
      }
    });
    engine.run_until(options.warmup + options.measure);

    for (std::size_t i = 0; i < flows.size(); ++i) {
      const double rate = window_rate_bps(
          start_bytes[i], flows[i]->receiver().total_bytes(), options.measure);
      result.flow_rates_bps.push_back(rate);
      result.total_goodput_bps += rate;
    }
    result.jain_index = jain_index(result.flow_rates_bps);
  } else {
    while (completed.load(std::memory_order_relaxed) <
               static_cast<int>(flows.size()) &&
           engine.now() < options.horizon && engine.pending()) {
      engine.run_until(std::min(engine.now() + sim::millis(5), options.horizon));
    }
    for (const transport::Flow* flow : flows) {
      if (!flow->completed()) {
        ++result.incomplete;
        continue;
      }
      ++result.completed;
      result.fct_us.push_back(sim::to_micros(flow->fct()));
    }
  }

  result.optimal_bps =
      optimal_goodput_bps(options.pattern, built.host_rate_bps, flows.size(),
                          built.mat.hosts.size());
  result.sim_events = engine.events_executed();
  result.shard_perf = engine.shard_perf();
  for (const auto& link : topo.links()) {
    result.queue_drops += link->queue().drops();
  }
  return result;
}

}  // namespace numfabric::exp
