// Flow-fluid simulation engine: `fidelity=flow` for 10^5-10^6 concurrent
// flows.
//
// A packet-level simulator advances one packet at a time; this engine
// advances flows between *epochs* — flow arrival, flow departure, periodic
// re-solve — and assigns every active flow its NUM-optimal rate.  At each
// epoch it patches the compiled CsrProblem via set_active, warm re-solves
// with a caller-owned NumWorkspace (honoring the execution policy's thread
// count; results are bit-identical for every value), then analytically
// integrates each active flow's remaining bytes at its oracle rate to find
// the next departure.  The only per-epoch cost is one warm solve plus an
// O(active flows) integration, so concurrency — not event count — bounds the
// per-epoch work.
//
// Two resolve disciplines (FlowSimOptions::resolve_interval_seconds):
//  * 0 (exact): re-solve at every arrival and departure.  This is the
//    event-driven fluid system, the paper's ideal oracle:
//    num::fluid_fct_oracle is this mode stepped to completion.  Cost: one
//    warm solve per flow event — fine up to ~10^4 flows.
//  * T > 0 (epoch grid): re-solve on a fixed grid of period T.  Between grid
//    points rates are frozen, so each flow's departure time is just
//    remaining / rate — departures are processed analytically without a
//    solve, and arrivals are admitted at the next grid point.  Cost: one warm
//    solve per grid tick regardless of flow count — the 10^5-10^6 regime.
//
// Fidelity limits (see src/flowsim/README.md): no queueing delay or
// packetization, rates are instantaneous optima (convergence is assumed
// free), and in grid mode rates lag the active set by up to T (frozen-rate
// departures under-allocate, grid-point admission delays arrivals), so
// grid-mode FCTs upper-bound exact-mode FCTs.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "num/num_solver.h"
#include "num/utility.h"

namespace numfabric::flowsim {

/// One flow of the fluid system (num::FluidFlow is the same struct).
struct FlowSimFlow {
  double arrival_seconds = 0.0;
  double size_bytes = 0.0;
  std::vector<int> links;                    // path (link indices)
  const num::UtilityFunction* utility = nullptr;  // non-owning
};

struct FlowSimOptions {
  /// 0 = exact event-driven mode; > 0 = epoch-grid period in seconds.
  double resolve_interval_seconds = 0.0;
  /// Flows still active at the horizon are reported incomplete.
  double horizon_seconds = std::numeric_limits<double>::infinity();
  /// Warm re-solve configuration; .policy carries --solver-threads.
  num::NumSolverOptions solver;
};

struct FlowSimResult {
  /// Completion time (seconds since arrival) per flow, input order;
  /// negative for flows that did not finish before the horizon.
  std::vector<double> fct_seconds;
  /// size / fct in rate units (Mbps); 0 for incomplete flows.
  std::vector<double> ideal_rate;
  int completed = 0;
  int incomplete = 0;
  /// Epochs advanced: arrival admissions + departures + grid re-solve ticks.
  std::int64_t epochs = 0;
  /// NUM re-solves performed (== epochs in exact mode, << epochs in grid
  /// mode).
  std::int64_t resolves = 0;
  /// Total Gauss-Seidel sweeps across all re-solves.
  std::int64_t solver_sweeps = 0;
  /// Total incremental worklist relaxations (0 unless
  /// FlowSimOptions::solver.incremental).
  std::int64_t solver_relaxations = 0;
  /// Largest concurrently-active flow count observed.
  std::size_t peak_active = 0;
  /// Simulated time when the run ended.
  double end_seconds = 0.0;
};

/// Compiles the flow set once, then steps epochs until every flow finished
/// or the horizon passed.  run() is the normal entry point; step() lets
/// benchmarks meter the per-epoch cost and lets the fluid oracle drive the
/// exact mode without booking flowsim_* counters.  Deterministic: the same
/// inputs produce byte-identical results for any thread count.
class FlowSimEngine {
 public:
  /// Validates flows (positive size, non-empty path, non-null utility —
  /// throws std::invalid_argument otherwise) and compiles the CSR problem.
  /// `capacities` are in rate units (Mbps).
  FlowSimEngine(std::vector<FlowSimFlow> flows, std::vector<double> capacities,
                FlowSimOptions options = {});

  /// Advances one epoch (admit due arrivals / re-solve / integrate to the
  /// next event).  Returns false once the run is finished.
  bool step();

  /// Steps to completion and returns the result (also increments the
  /// flowsim_* substrate counters by this run's epoch/resolve totals).
  FlowSimResult run();

  /// Back to t = 0 with every flow pending.  The compiled problem and the
  /// workspace buffers are kept, so a re-run is allocation-light.
  void reset();

  bool finished() const { return finished_; }
  double now_seconds() const { return now_; }
  std::size_t active_count() const { return active_.size(); }
  const FlowSimResult& result() const { return result_; }

 private:
  void admit_due_arrivals();
  void resolve();
  void retire(std::size_t id, double at_seconds);
  bool step_exact();
  bool step_grid();
  void finish();

  /// What the epochs read of each flow once its path is compiled.
  struct Flow {
    double arrival_seconds = 0.0;
    double size_bytes = 0.0;
  };
  std::vector<Flow> flows_;
  FlowSimOptions options_;
  num::CsrProblem csr_;
  num::NumWorkspace workspace_;
  num::NumSolverOptions solver_options_;

  std::vector<std::size_t> order_;  // flow ids by arrival time
  std::vector<std::size_t> active_;
  std::vector<double> remaining_bits_;
  std::size_t next_arrival_ = 0;
  double now_ = 0.0;
  bool finished_ = false;
  FlowSimResult result_;
};

}  // namespace numfabric::flowsim
