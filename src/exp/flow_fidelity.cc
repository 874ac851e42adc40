#include "exp/flow_fidelity.h"

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exp/common.h"
#include "exp/flow_plan.h"
#include "net/routing.h"
#include "num/fluid_fct_oracle.h"
#include "num/utility.h"
#include "sim/random.h"
#include "workload/scenarios.h"

namespace numfabric::exp {
namespace {

flowsim::FlowSimOptions engine_options(double resolve_interval_seconds,
                                       double horizon_seconds,
                                       int solver_threads, bool incremental,
                                       double tolerance = 1e-8) {
  flowsim::FlowSimOptions fs;
  fs.resolve_interval_seconds = resolve_interval_seconds;
  fs.horizon_seconds = horizon_seconds;
  // Default matches the packet experiments' fluid oracle; mega-fct loosens it.
  fs.solver.tolerance = tolerance;
  fs.solver.policy = num::ExecutionPolicy::parallel(solver_threads);
  fs.solver.incremental = incremental;
  return fs;
}

}  // namespace

DynamicWorkloadResult run_dynamic_workload_flow(
    const DynamicWorkloadOptions& options, double resolve_interval_seconds,
    bool incremental) {
  sim::Simulator sim;
  net::Topology topo(sim);
  BuiltFabric built =
      plan_fabric(options.topology, options.jellyfish, options.k_paths);
  materialize_fabric(built, topo, net::drop_tail_factory());
  const std::vector<double> capacities = graph_capacities(built.graph);

  const FlowPlan plan = plan_poisson(built, options);

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<flowsim::FlowSimFlow> flows = plan.fluid_flows(&utility);
  // Ideal rates come from the exact fluid system.  An exact-mode run is
  // that system; a grid run also asks the oracle (cheap at the scales that
  // cross-validate against packets).
  std::vector<double> oracle_fcts;
  if (resolve_interval_seconds > 0) {
    num::NumSolverOptions solver_options;
    solver_options.tolerance = 1e-8;
    solver_options.policy =
        num::ExecutionPolicy::parallel(options.solver_threads);
    oracle_fcts =
        num::fluid_fct_oracle(flows, capacities, solver_options).fct_seconds;
  }
  flowsim::FlowSimEngine engine(
      std::move(flows), capacities,
      engine_options(resolve_interval_seconds, sim::to_seconds(options.horizon),
                     options.solver_threads, incremental));
  const flowsim::FlowSimResult run = engine.run();
  const std::vector<double>& ideal =
      resolve_interval_seconds > 0 ? oracle_fcts : run.fct_seconds;

  DynamicWorkloadResult result;
  result.bdp_bytes =
      built.host_rate_bps * sim::to_seconds(built.base_rtt) / 8.0;
  result.sim_events = 0;
  // Same base-RTT charge as the packet runner applies to its oracle rates —
  // here both the measured and the ideal side are fluid, so both get it.
  const double latency = sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    if (run.fct_seconds[i] < 0) {
      ++result.incomplete;
      continue;
    }
    DynamicWorkloadResult::PerFlow row;
    row.size_bytes = plan.flows[i].size_bytes;
    row.fct_seconds = run.fct_seconds[i] + latency;
    row.rate_bps = static_cast<double>(row.size_bytes) * 8.0 / row.fct_seconds;
    row.ideal_rate_bps =
        static_cast<double>(row.size_bytes) * 8.0 / (ideal[i] + latency);
    result.flows.push_back(row);
  }
  return result;
}

TrafficResult run_traffic_experiment_flow(const TrafficOptions& options,
                                          double resolve_interval_seconds,
                                          int solver_threads,
                                          bool incremental) {
  sim::Simulator sim;
  net::Topology topo(sim);
  BuiltFabric built =
      plan_fabric(options.topology, options.jellyfish, options.k_paths);
  materialize_fabric(built, topo, net::drop_tail_factory());
  const std::vector<double> capacities = graph_capacities(built.graph);
  FlowPlan plan = plan_traffic(built, options);

  const num::AlphaFairUtility utility(options.alpha);
  TrafficResult result;
  result.flow_count = static_cast<int>(plan.flows.size());
  result.optimal_bps =
      optimal_goodput_bps(options.pattern, built.host_rate_bps,
                          plan.flows.size(), built.mat.hosts.size());

  if (options.flow_size_bytes == 0) {
    // Long-running flows never depart: the steady state is one NUM solve.
    num::NumProblem problem;
    problem.capacities = capacities;
    problem.utilities.assign(plan.flows.size(), &utility);
    for (FlowPlan::Flow& flow : plan.flows) {
      problem.flow_links.push_back(std::move(flow.links));
    }
    num::CsrProblem csr = num::CsrProblem::compile(problem);
    num::NumWorkspace workspace;
    num::NumSolverOptions solver_options;
    solver_options.tolerance = 1e-8;
    solver_options.policy = num::ExecutionPolicy::parallel(solver_threads);
    num::solve(csr, workspace, solver_options);
    for (const double rate : workspace.rates()) {
      const double rate_bps = rate * num::kRateUnitBps;
      result.flow_rates_bps.push_back(rate_bps);
      result.total_goodput_bps += rate_bps;
    }
    result.jain_index = jain_index(result.flow_rates_bps);
  } else {
    flowsim::FlowSimEngine engine(
        plan.fluid_flows(&utility), capacities,
        engine_options(resolve_interval_seconds,
                       sim::to_seconds(options.horizon), solver_threads,
                       incremental));
    const flowsim::FlowSimResult run = engine.run();
    const double latency_us = sim::to_seconds(built.base_rtt) * 1e6;
    for (const double fct : run.fct_seconds) {
      if (fct < 0) {
        ++result.incomplete;
        continue;
      }
      ++result.completed;
      result.fct_us.push_back(fct * 1e6 + latency_us);
    }
  }
  return result;
}

TraceReplayResult run_trace_replay_flow(const TraceReplayOptions& options,
                                        double resolve_interval_seconds,
                                        int solver_threads,
                                        bool incremental) {
  sim::Simulator sim;
  net::Topology topo(sim);
  BuiltFabric built = plan_fabric(options.topology, std::nullopt, 8);
  materialize_fabric(built, topo, net::drop_tail_factory());
  const FlowPlan plan = plan_trace(built, options.trace);

  const num::AlphaFairUtility utility(options.alpha);
  flowsim::FlowSimEngine engine(
      plan.fluid_flows(&utility), graph_capacities(built.graph),
      engine_options(resolve_interval_seconds, sim::to_seconds(options.horizon),
                     solver_threads, incremental));
  const flowsim::FlowSimResult run = engine.run();

  TraceReplayResult result;
  result.sim_events = 0;
  const double latency = sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < options.trace.size(); ++i) {
    TraceReplayResult::PerFlow row;
    row.src = options.trace[i].src;
    row.dst = options.trace[i].dst;
    row.size_bytes = options.trace[i].size_bytes;
    row.arrival_seconds = options.trace[i].arrival_seconds;
    row.completed = run.fct_seconds[i] >= 0;
    if (row.completed) {
      row.fct_seconds = run.fct_seconds[i] + latency;
      ++result.completed;
    } else {
      ++result.incomplete;
    }
    result.flows.push_back(row);
  }
  return result;
}

MegaFctResult run_mega_fct(const MegaFctOptions& options) {
  if (options.resolve_interval_seconds <= 0) {
    throw std::invalid_argument(
        "mega-fct: resolve interval must be > 0 (exact mode is one solve per "
        "departure — unusable at this scale)");
  }
  sim::Rng rng(options.seed);

  // The leaf-spine is pure index arithmetic; a jellyfish is a planned graph,
  // never materialized, routed through its ToR-pair table.
  std::optional<BuiltFabric> graph_fabric;
  if (options.jellyfish) {
    graph_fabric = plan_fabric({}, options.jellyfish, options.k_paths);
  }
  const int hosts =
      graph_fabric ? static_cast<int>(graph_fabric->host_nodes.size())
                   : options.fabric.hosts();
  const std::vector<workload::IndexFlow> batch = workload::batch_index_flows(
      hosts, options.concurrent, *options.sizes, rng);

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<flowsim::FlowSimFlow> engine_flows;
  engine_flows.reserve(batch.size());
  MegaFctResult result;
  result.hosts = hosts;
  result.links = graph_fabric ? graph_fabric->graph.num_links()
                              : options.fabric.links();
  result.size_bytes.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    flowsim::FlowSimFlow flow;
    flow.arrival_seconds = 0.0;
    flow.size_bytes = static_cast<double>(batch[i].size_bytes);
    const auto id = static_cast<std::uint64_t>(i + 1);
    if (graph_fabric) {
      const PairPaths paths = pair_paths(
          *graph_fabric,
          graph_fabric->host_nodes[static_cast<std::size_t>(batch[i].src)],
          graph_fabric->host_nodes[static_cast<std::size_t>(batch[i].dst)]);
      flow.links = paths[net::ecmp_index(paths.size(), id)];
    } else {
      flow.links = options.fabric.path(batch[i].src, batch[i].dst, id);
    }
    flow.utility = &utility;
    engine_flows.push_back(std::move(flow));
    result.size_bytes.push_back(batch[i].size_bytes);
  }

  flowsim::FlowSimEngine engine(
      std::move(engine_flows),
      graph_fabric ? graph_capacities(graph_fabric->graph)
                   : options.fabric.capacities(),
      engine_options(options.resolve_interval_seconds, options.horizon_seconds,
                     options.solver_threads, options.incremental,
                     options.solver_tolerance));
  result.sim = engine.run();
  return result;
}

}  // namespace numfabric::exp
