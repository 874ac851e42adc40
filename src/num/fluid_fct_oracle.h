// Event-driven fluid simulation: the paper's "ideal Oracle" for dynamic
// workloads (§6.1).
//
// Flows arrive with a size; at every arrival or completion the oracle
// recomputes the optimal NUM allocation for the currently active set
// (instantaneous convergence) and advances remaining sizes fluidly until the
// next event.  The resulting completion times define idealRate = size / FCT,
// the denominator of Fig. 5's normalized rate deviation, and the ideal FCTs
// for Fig. 7.
//
// That system is flowsim::FlowSimEngine's exact mode; this entry point
// steps an exact-mode engine to completion and keeps the oracle's result
// shape.
#pragma once

#include <cstdint>
#include <vector>

#include "flowsim/flow_sim_engine.h"
#include "num/num_solver.h"

namespace numfabric::num {

/// The engine's flow record under the oracle's historical name.
using FluidFlow = flowsim::FlowSimFlow;

struct FluidFctResult {
  /// Completion time (seconds since arrival) per flow, same order as input.
  std::vector<double> fct_seconds;
  /// size / fct, in rate units (Mbps).
  std::vector<double> ideal_rate;
  /// Number of allocation recomputations performed (perf reporting).
  int solves = 0;
  /// Total Gauss-Seidel sweeps across all solves.  Successive events share
  /// their link prices (the active set changes by a flow or two while the
  /// dual barely moves), so every re-solve warm-starts from the previous
  /// solution; this counter is what that saves.
  std::int64_t sweeps = 0;
};

/// Simulates the fluid system.  `capacities` are in rate units (Mbps).
/// Throws std::invalid_argument on a malformed flow and std::logic_error
/// when every active rate is zero.  The flowsim_* substrate counters are
/// left alone: they count fidelity=flow runs, not oracle passes.
/// Complexity: O(events * solver); intended for oracle use, not scale.
FluidFctResult fluid_fct_oracle(const std::vector<FluidFlow>& flows,
                                const std::vector<double>& capacities,
                                const NumSolverOptions& solver_options = {});

}  // namespace numfabric::num
