#include "num/fluid_fct_oracle.h"

namespace numfabric::num {

FluidFctResult fluid_fct_oracle(const std::vector<FluidFlow>& flows,
                                const std::vector<double>& capacities,
                                const NumSolverOptions& solver_options) {
  flowsim::FlowSimOptions options;  // exact mode, no horizon
  options.solver = solver_options;
  flowsim::FlowSimEngine engine(flows, capacities, options);
  // step(), not run(): run() books the flowsim_* perf counters.
  while (engine.step()) {
  }
  const flowsim::FlowSimResult& run = engine.result();
  FluidFctResult result;
  result.fct_seconds = run.fct_seconds;
  result.ideal_rate = run.ideal_rate;
  result.solves = static_cast<int>(run.resolves);
  result.sweeps = run.solver_sweeps;
  return result;
}

}  // namespace numfabric::num
