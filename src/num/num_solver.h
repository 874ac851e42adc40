// Ground-truth NUM solver (the paper's "Oracle").
//
// Solves  max sum_i U_i(x_i)  s.t.  R x <= c,  x >= 0  for smooth, strictly
// concave, increasing utilities, by Gauss-Seidel sweeps on the dual: each
// link in turn sets its price p_l >= 0 so that its capacity constraint holds
// with complementary slackness, given the other links' prices:
//
//   sum_{i on l} U_i'^{-1}( sum_{k in path(i)} p_k ) = c_l   (or p_l = 0).
//
// The per-link subproblem is monotone in p_l, so a bisection solves it
// exactly (tolerance-mode solves use a safeguarded Newton step on the same
// equation); sweeping to a fixed point yields KKT-satisfying prices/rates
// (Eqs. 5-6).  This is far more robust than running DGD to convergence and
// needs no step size — ideal for an oracle.
//
// API: compile the problem once (num::CsrProblem::compile), then call
// solve() with a caller-owned NumWorkspace.  Re-solves against the same
// workspace are warm-started and allocation-free; flow arrival/departure is
// a CsrProblem::set_active row patch.  NumSolverOptions::policy selects
// serial (the reference spec) or parallel wave execution — bit-identical for
// every thread count.  See src/num/README.md.
#pragma once

#include <vector>

#include "num/csr_problem.h"
#include "num/utility.h"

namespace numfabric::num {

struct NumSolverOptions {
  int max_sweeps = 2000;
  /// Relative feasibility / slackness tolerance.
  double tolerance = 1e-9;
  /// Warm-start prices.  Non-empty overrides the workspace's warm state;
  /// empty defers to the workspace (warm after a previous solve, else cold
  /// at 1.0 everywhere).
  std::vector<double> initial_prices;
  /// serial (default) or parallel(n); results are identical either way.
  ExecutionPolicy policy;
  /// Incremental re-solve: seed a worklist from the links dirtied by
  /// set_active since the last solve, patch path_price only for toggled
  /// flows, relax links off the worklist (re-enqueueing neighbors that share
  /// an active flow when a price moves >= tolerance), then run full
  /// verification sweeps to convergence.  Converges to the same tolerance as
  /// a full solve but is NOT bit-identical to it (stored path_price carries
  /// prior-solve rounding) — keep it off wherever golden hashes apply.  It
  /// IS deterministic and thread-count invariant: the worklist phase is
  /// serial, the verification sweeps use the wave schedule.  Falls back to a
  /// full solve when the workspace is cold, initial_prices are set, the
  /// workspace last solved a different problem/epoch, or the problem is
  /// all-dirty (fresh compile / deactivate_all).
  ///
  /// It also selects tolerance mode for the whole solve, fallback included:
  /// each link's price search stops at tolerance * 1e-2 even when cold, and
  /// uses a safeguarded Newton step instead of bisection when every
  /// utility is alpha-fair.  In tolerance mode the verification sweeps
  /// re-relax only *stale* links: those holding a flow whose path price a
  /// relaxation moved since the link's own last relaxation (see
  /// src/num/README.md, tier 2).
  bool incremental = false;
};

struct SolveStats {
  int sweeps = 0;
  bool converged = false;
  /// Worklist pops performed by the incremental path (0 for full solves).
  std::int64_t relaxations = 0;
  /// Links relaxed by the incremental path's verification sweeps (0 for
  /// full solves): every link in a full sweep, only the stale ones
  /// otherwise.
  std::int64_t verifications = 0;
};

/// Runs Gauss-Seidel dual sweeps on the compiled problem.  Results land in
/// the workspace: prices() per link, rates() per flow (0 for inactive
/// flows).  Allocation-free when the workspace has solved this shape before
/// (counted by the allocs_solver_workspace substrate stat).
SolveStats solve(const CsrProblem& problem, NumWorkspace& workspace,
                 const NumSolverOptions& options = {});

/// KKT residual check used by tests: returns the maximum over flows of
/// |U'(x_i) - sum prices| / U'(x_i) plus the maximum complementary slackness
/// violation.  Near zero iff (rates, prices) solve the NUM problem.
/// Link loads accumulate flow-major into a per-link vector — O(nnz) instead
/// of the former O(links x flows x path) rescan — in increasing flow id per
/// link, i.e. bitwise the legacy summation order.
double kkt_residual(const NumProblem& problem, const std::vector<double>& rates,
                    const std::vector<double>& prices);

/// CSR overload: the same residual over the compiled problem's *active*
/// flows and compacted rows in O(active nnz) — usable at mega scale
/// (inactive flows have rate 0 and contribute nothing).
double kkt_residual(const CsrProblem& problem, std::span<const double> rates,
                    std::span<const double> prices);

}  // namespace numfabric::num
