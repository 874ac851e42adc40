// Flow-fidelity (fidelity=flow) experiment runners.
//
// Each runner here is the flow-fluid twin of a packet-level experiment: it
// takes the *same* flow plan (exp/flow_plan.h: one seeded draw, one ECMP
// pick per flow) on the *same* topology, but advances it with
// flowsim::FlowSimEngine instead of the packet substrate — one warm NUM
// re-solve per epoch instead of millions of packet events.  Results come
// back in the packet runner's result struct so the scenario layer emits
// identical tables either way.
//
// Comparability: the fluid model has no propagation delay, so every
// completion time is charged one base cross-leaf RTT (exactly the
// `oracle_latency` adjustment run_dynamic_workload applies to its ideal
// rates).  Ideal rates are always taken from the *exact* fluid system: when
// resolve_interval_seconds == 0 the engine is that system, otherwise
// num::fluid_fct_oracle is run alongside the grid-mode engine.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exp/dynamic_workload.h"
#include "exp/trace_replay.h"
#include "exp/traffic_experiment.h"
#include "flowsim/flow_sim_engine.h"
#include "flowsim/virtual_fabric.h"
#include "net/fabric_graph.h"
#include "workload/size_distribution.h"

namespace numfabric::exp {

/// run_dynamic_workload at flow fidelity.  `resolve_interval_seconds` == 0
/// replays the exact fluid system (normalized FCT == 1 by construction);
/// > 0 uses the epoch grid.  options.scheme is ignored — flow fidelity
/// models NUM-optimal rates; callers gate schemes (see scenario layer).
/// `incremental` enables the solver's worklist re-solve path
/// (NumSolverOptions::incremental): same tolerance, not bit-identical to a
/// full solve — scenario layers that golden-hash output pass false.
DynamicWorkloadResult run_dynamic_workload_flow(
    const DynamicWorkloadOptions& options, double resolve_interval_seconds,
    bool incremental = true);

/// run_traffic_experiment at flow fidelity.  Rate mode (flow_size_bytes ==
/// 0) is a single NUM solve — the steady-state allocation without the
/// warmup/measure window; FCT mode runs the engine with every flow arriving
/// at t = 0.
TrafficResult run_traffic_experiment_flow(const TrafficOptions& options,
                                          double resolve_interval_seconds,
                                          int solver_threads,
                                          bool incremental = true);

/// run_trace_replay at flow fidelity.
TraceReplayResult run_trace_replay_flow(const TraceReplayOptions& options,
                                        double resolve_interval_seconds,
                                        int solver_threads,
                                        bool incremental = true);

// ---------------------------------------------------------------------------
// mega-fct: the 10^5-10^6 concurrent-flow regime.  No net::Topology at all —
// a VirtualLeafSpine is pure index arithmetic and a jellyfish stays a
// FabricGraph, so the only per-flow state is the engine's (path indices +
// remaining bytes).
// ---------------------------------------------------------------------------

struct MegaFctOptions {
  flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 32,
                                   .leaves = 32,
                                   .spines = 8,
                                   .host_rate = 10e3,          // 10G in Mbps
                                   .leaf_spine_rate = 40e3};   // 40G in Mbps
  /// When set, the batch runs on this jellyfish graph instead of the
  /// index-arithmetic VirtualLeafSpine above: exp::plan_fabric builds it,
  /// exp::pair_paths routes each flow over the k_paths shortest paths of its
  /// ToR pair (the packet runners' table) and exp::graph_capacities sizes
  /// its links.
  std::optional<net::JellyfishOptions> jellyfish;
  int k_paths = 8;
  /// Concurrent flows, all arriving at t = 0.
  int concurrent = 100000;
  const workload::SizeDistribution* sizes = &workload::websearch_distribution();
  double alpha = 1.0;  // proportional fairness; hits the solver's fast path
  /// Must be > 0: exact mode would pay one solve per departure — 10^5 warm
  /// solves — which defeats the purpose at this scale.
  double resolve_interval_seconds = 1e-3;
  /// Looser than the 1e-8 the cross-validated runners use: grid-mode FCTs are
  /// already quantized to resolve_interval_seconds, so price precision far
  /// below that grid buys sweeps, not accuracy.
  double solver_tolerance = 1e-5;
  double horizon_seconds = 30.0;
  int solver_threads = 1;
  /// Incremental (worklist) re-solves: ON by default at this scale — per-tick
  /// cost tracks churn, not the 10^5-10^6 compiled flows.  FCTs stay within
  /// the solver-tolerance band of a full-solve run (property-tested) but are
  /// not bit-identical to one.
  bool incremental = true;
  std::uint64_t seed = 1;
};

struct MegaFctResult {
  int hosts = 0;  // fabric shape actually run (jellyfish or leaf-spine)
  int links = 0;
  flowsim::FlowSimResult sim;            // FCTs, epoch/resolve counters
  std::vector<std::uint64_t> size_bytes;  // per flow, engine order
};

MegaFctResult run_mega_fct(const MegaFctOptions& options);

}  // namespace numfabric::exp
