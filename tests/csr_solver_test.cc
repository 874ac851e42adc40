// Properties of the compiled CSR solver path (num::CsrProblem +
// num::NumWorkspace + num::solve):
//
//  * serial vs parallel(2/4/8) wave execution is BITWISE identical — the
//    determinism contract behind --solver-threads (randomized problems
//    across alphas, cold and warm);
//  * solutions satisfy the KKT system to the solver tolerance;
//  * pow(x, -1.0) == 1.0 / x bitwise — the identity the alpha == 1
//    reciprocal fast path rests on;
//  * warm re-solves against a reused workspace are allocation-free
//    (measured by the allocs_solver_workspace substrate counter);
//  * a set_active row patch solves exactly the freshly compiled subproblem;
//  * compacted active rows match a full-row scan value-for-value, and
//    randomized activation patterns solve bit-identically to recompiled
//    subproblems across warm/cold x serial/parallel(2/4/8) (tier 1);
//  * incremental (worklist) re-solves satisfy KKT to the same tolerance,
//    stay within a tolerance band of the optimum, are thread-count
//    invariant, and fall back to full solves when the workspace binding is
//    stale (tier 2); their Newton price finder closes its bracket before it
//    stops, and generic utilities keep the bisection finder;
//  * kkt_residual's flow-major load pass is bitwise the legacy nested scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "num/csr_problem.h"
#include "num/num_solver.h"
#include "num/utility.h"
#include "sim/random.h"
#include "sim/substrate_stats.h"

namespace numfabric::num {
namespace {

/// A randomized NUM instance that owns its utility objects (CsrProblem
/// borrows them).
struct RandomInstance {
  std::vector<std::unique_ptr<AlphaFairUtility>> utilities;
  NumProblem problem;
};

/// max over links of (load - capacity) / capacity at `rates`, over each
/// link's active flows (0 when no link is overloaded).
double max_violation(const CsrProblem& problem, std::span<const double> rates) {
  double worst = 0.0;
  for (std::size_t l = 0; l < problem.num_links(); ++l) {
    double load = 0.0;
    for (const std::int32_t i : problem.link_active_flows(l)) {
      load += rates[static_cast<std::size_t>(i)];
    }
    worst = std::max(worst, (load - problem.capacities()[l]) /
                                problem.capacities()[l]);
  }
  return worst;
}

RandomInstance make_random(double alpha, int flows, int links,
                           std::uint64_t seed) {
  RandomInstance instance;
  sim::Rng rng(seed);
  instance.problem.capacities.resize(static_cast<std::size_t>(links));
  for (auto& c : instance.problem.capacities) c = rng.uniform(10.0, 100.0);
  for (int i = 0; i < flows; ++i) {
    instance.utilities.push_back(
        std::make_unique<AlphaFairUtility>(alpha, rng.uniform(0.5, 2.0)));
    instance.problem.utilities.push_back(instance.utilities.back().get());
    std::vector<int> path;
    const int hops = static_cast<int>(rng.uniform_int(1, 3));
    for (int h = 0; h < hops; ++h) {
      const int link =
          static_cast<int>(rng.index(static_cast<std::size_t>(links)));
      if (std::find(path.begin(), path.end(), link) == path.end()) {
        path.push_back(link);
      }
    }
    instance.problem.flow_links.push_back(path);
  }
  return instance;
}

/// Bitwise equality of two double sequences (EXPECT_EQ on doubles would
/// conflate -0.0 with 0.0 and choke on NaN).
::testing::AssertionResult bitwise_equal(std::span<const double> a,
                                         std::span<const double> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i]
             << " (bit patterns differ)";
    }
  }
  return ::testing::AssertionSuccess();
}

struct CsrCase {
  double alpha;
  int flows;
  int links;
  std::uint64_t seed;
};

class CsrSolverRandom : public ::testing::TestWithParam<CsrCase> {};

// The --solver-threads contract: for every thread count, prices AND rates
// are bit-identical to the serial reference sweep — cold, and warm after a
// set_active row patch.
TEST_P(CsrSolverRandom, ParallelIsBitIdenticalToSerial) {
  const CsrCase param = GetParam();
  const RandomInstance instance =
      make_random(param.alpha, param.flows, param.links, param.seed);

  CsrProblem serial_csr = CsrProblem::compile(instance.problem);
  NumWorkspace serial_ws;
  const SolveStats serial = solve(serial_csr, serial_ws);
  ASSERT_TRUE(serial.converged);

  for (const int threads : {2, 4, 8}) {
    CsrProblem csr = CsrProblem::compile(instance.problem);
    NumWorkspace ws;
    NumSolverOptions options;
    options.policy = ExecutionPolicy::parallel(threads);
    const SolveStats stats = solve(csr, ws, options);
    EXPECT_EQ(stats.sweeps, serial.sweeps) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(ws.prices(), serial_ws.prices()))
        << "prices diverged at threads=" << threads;
    EXPECT_TRUE(bitwise_equal(ws.rates(), serial_ws.rates()))
        << "rates diverged at threads=" << threads;

    // Warm re-solve after a row patch: drop one flow on both sides, re-solve
    // from the previous prices, and the wave execution must still track the
    // serial sweep bit-for-bit.
    const std::size_t drop = static_cast<std::size_t>(param.seed) %
                             static_cast<std::size_t>(param.flows);
    serial_csr.set_active(drop, false);
    csr.set_active(drop, false);
    const SolveStats warm_serial = solve(serial_csr, serial_ws);
    const SolveStats warm_parallel = solve(csr, ws, options);
    EXPECT_EQ(warm_parallel.sweeps, warm_serial.sweeps);
    EXPECT_TRUE(bitwise_equal(ws.prices(), serial_ws.prices()))
        << "warm prices diverged at threads=" << threads;
    EXPECT_TRUE(bitwise_equal(ws.rates(), serial_ws.rates()))
        << "warm rates diverged at threads=" << threads;
    serial_csr.set_active(drop, true);
    serial_ws.reset();
    const SolveStats again = solve(serial_csr, serial_ws);
    ASSERT_TRUE(again.converged);
  }
}

// The CSR path must still be a correct NUM solver: KKT residual near zero.
TEST_P(CsrSolverRandom, SatisfiesKkt) {
  const CsrCase param = GetParam();
  const RandomInstance instance =
      make_random(param.alpha, param.flows, param.links, param.seed);
  const CsrProblem csr = CsrProblem::compile(instance.problem);
  NumWorkspace ws;
  const SolveStats stats = solve(csr, ws);
  ASSERT_TRUE(stats.converged);
  EXPECT_LT(max_violation(csr, ws.rates()), 1e-6);
  const std::vector<double> rates(ws.rates().begin(), ws.rates().end());
  const std::vector<double> prices(ws.prices().begin(), ws.prices().end());
  EXPECT_LT(kkt_residual(instance.problem, rates, prices), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, CsrSolverRandom,
    ::testing::Values(CsrCase{0.5, 10, 4, 11}, CsrCase{1.0, 10, 4, 12},
                      CsrCase{2.0, 10, 4, 13}, CsrCase{1.0, 50, 10, 14},
                      CsrCase{4.0, 30, 8, 15}, CsrCase{0.125, 20, 6, 16},
                      CsrCase{1.0, 200, 30, 17}));

// Tier-1 structural invariant behind the compacted rows: after any sequence
// of set_active toggles, every link's compacted row holds exactly the values
// a full-row scan that skips inactives would visit, in the same order.  This
// is the literal "identical values in identical order" claim the solver's
// bit-exactness rests on.
TEST_P(CsrSolverRandom, CompactedRowsMatchFullRowScan) {
  const CsrCase param = GetParam();
  const RandomInstance instance =
      make_random(param.alpha, param.flows, param.links, param.seed);
  CsrProblem csr = CsrProblem::compile(instance.problem);

  sim::Rng rng(param.seed * 1000 + 7);
  const auto check_rows = [&csr]() {
    std::size_t active_total = 0;
    for (std::size_t l = 0; l < csr.num_links(); ++l) {
      std::vector<std::int32_t> reference;
      for (const std::int32_t i : csr.link_flows(l)) {
        if (csr.active(static_cast<std::size_t>(i))) reference.push_back(i);
      }
      const auto compacted = csr.link_active_flows(l);
      ASSERT_EQ(compacted.size(), reference.size()) << "link " << l;
      for (std::size_t k = 0; k < reference.size(); ++k) {
        ASSERT_EQ(compacted[k], reference[k]) << "link " << l << " slot " << k;
      }
    }
    for (std::size_t i = 0; i < csr.num_flows(); ++i) {
      if (csr.active(i)) ++active_total;
    }
    ASSERT_EQ(csr.active_count(), active_total);
  };

  check_rows();
  for (int step = 0; step < 200; ++step) {
    const auto flow = rng.index(csr.num_flows());
    csr.set_active(flow, !csr.active(flow));
  }
  check_rows();
  csr.deactivate_all();
  check_rows();
  for (int step = 0; step < 100; ++step) {
    const auto flow = rng.index(csr.num_flows());
    csr.set_active(flow, !csr.active(flow));
  }
  check_rows();
}

// Randomized-pattern bitwise parity (the tier-1 acceptance property): after
// a random activation pattern, solving the patched problem — cold and warm,
// serial and parallel(2/4/8) — is bit-identical to solving the freshly
// compiled subproblem that contains only the active rows, i.e. the
// compaction is invisible to every load sum, path_price update and
// rate/violation loop.
TEST_P(CsrSolverRandom, RandomActivePatternMatchesRecompiledBitwise) {
  const CsrCase param = GetParam();
  const RandomInstance instance =
      make_random(param.alpha, param.flows, param.links, param.seed);
  sim::Rng rng(param.seed * 7919 + 3);

  // Random pattern via a toggle walk (exercises insert AND remove, including
  // re-activation), keeping at least one flow active.
  CsrProblem patched = CsrProblem::compile(instance.problem);
  for (int step = 0; step < 3 * param.flows; ++step) {
    const auto flow = rng.index(patched.num_flows());
    patched.set_active(flow, !patched.active(flow));
  }
  if (patched.active_count() == 0) patched.set_active(0, true);

  NumProblem sub;
  sub.capacities = instance.problem.capacities;
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < patched.num_flows(); ++i) {
    if (!patched.active(i)) continue;
    kept.push_back(i);
    sub.utilities.push_back(instance.problem.utilities[i]);
    sub.flow_links.push_back(instance.problem.flow_links[i]);
  }
  const CsrProblem sub_csr = CsrProblem::compile(sub);

  for (const int threads : {1, 2, 4, 8}) {
    NumSolverOptions options;
    options.policy = threads == 1 ? ExecutionPolicy::serial()
                                  : ExecutionPolicy::parallel(threads);
    // Cold.
    NumWorkspace patched_ws;
    NumWorkspace sub_ws;
    const SolveStats patched_cold = solve(patched, patched_ws, options);
    const SolveStats sub_cold = solve(sub_csr, sub_ws, options);
    EXPECT_EQ(patched_cold.sweeps, sub_cold.sweeps) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(patched_ws.prices(), sub_ws.prices()))
        << "cold prices diverged at threads=" << threads;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      const double a = patched_ws.rates()[kept[k]];
      const double b = sub_ws.rates()[k];
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "cold rate of flow " << kept[k] << " at threads=" << threads;
    }
    // Warm: drop one more active flow on both sides and re-solve from the
    // previous prices.
    const std::size_t drop = kept[rng.index(kept.size())];
    if (kept.size() < 2) continue;
    patched.set_active(drop, false);
    NumProblem sub2;
    sub2.capacities = sub.capacities;
    std::vector<std::size_t> kept2;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (kept[k] == drop) continue;
      kept2.push_back(kept[k]);
      sub2.utilities.push_back(sub.utilities[k]);
      sub2.flow_links.push_back(sub.flow_links[k]);
    }
    const CsrProblem sub2_csr = CsrProblem::compile(sub2);
    NumWorkspace sub2_ws;
    NumSolverOptions warm_options = options;
    warm_options.initial_prices.assign(sub_ws.prices().begin(),
                                       sub_ws.prices().end());
    const SolveStats patched_warm = solve(patched, patched_ws, options);
    const SolveStats sub_warm = solve(sub2_csr, sub2_ws, warm_options);
    EXPECT_EQ(patched_warm.sweeps, sub_warm.sweeps) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(patched_ws.prices(), sub2_ws.prices()))
        << "warm prices diverged at threads=" << threads;
    for (std::size_t k = 0; k < kept2.size(); ++k) {
      const double a = patched_ws.rates()[kept2[k]];
      const double b = sub2_ws.rates()[k];
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "warm rate of flow " << kept2[k] << " at threads=" << threads;
    }
    patched.set_active(drop, true);  // restore for the next thread count
  }
}

// Tier-2 property: incremental re-solves reach the same KKT tolerance as
// full re-solves on every solve, and their rates stay within a
// solver-tolerance band of the full solution.  That holds for the cold solve
// too: without a warm workspace the incremental option falls back to a full
// solve (zero relaxations), but a tolerance-mode one — the Newton price
// finder at the tolerance resolution — so it is not bitwise the bisection's
// full solve.  Both also stay within the band of the optimum (a full solve at
// a far tighter tolerance).
TEST_P(CsrSolverRandom, IncrementalChurnSatisfiesKktAndMatchesFull) {
  const CsrCase param = GetParam();
  const RandomInstance instance =
      make_random(param.alpha, param.flows, param.links, param.seed);
  CsrProblem csr_inc = CsrProblem::compile(instance.problem);
  CsrProblem csr_full = CsrProblem::compile(instance.problem);
  CsrProblem csr_optimum = CsrProblem::compile(instance.problem);
  NumWorkspace ws_inc;
  NumWorkspace ws_full;
  NumWorkspace ws_optimum;
  NumSolverOptions opt_inc;
  opt_inc.incremental = true;
  const NumSolverOptions opt_full;
  NumSolverOptions opt_optimum;
  opt_optimum.tolerance = 1e-13;
  opt_optimum.max_sweeps = 100'000;

  const auto expect_in_band = [&](const std::string& when) {
    ASSERT_TRUE(solve(csr_optimum, ws_optimum, opt_optimum).converged)
        << when;
    // Same convergence contract as the full path.
    EXPECT_LT(kkt_residual(csr_inc, ws_inc.rates(), ws_inc.prices()), 1e-5)
        << when;
    EXPECT_LT(max_violation(csr_inc, ws_inc.rates()), 1e-5) << when;
    // Not bit-identical to the full solve, but within a tolerance band of
    // it, and both within that band of the optimum.
    for (const std::int32_t f : csr_inc.active_flows()) {
      const auto i = static_cast<std::size_t>(f);
      const double a = ws_inc.rates()[i];
      const double b = ws_full.rates()[i];
      EXPECT_LE(std::abs(a - b), 1e-5 * std::max(1.0, std::abs(b)))
          << when << " flow " << i;
      const double optimum = ws_optimum.rates()[i];
      const double band = 1e-5 * std::max(1.0, std::abs(optimum));
      EXPECT_LE(std::abs(a - optimum), band)
          << when << " flow " << i << " (incremental vs optimum)";
      EXPECT_LE(std::abs(b - optimum), band)
          << when << " flow " << i << " (full vs optimum)";
    }
  };

  const SolveStats cold_inc = solve(csr_inc, ws_inc, opt_inc);
  const SolveStats cold_full = solve(csr_full, ws_full, opt_full);
  ASSERT_TRUE(cold_inc.converged);
  ASSERT_TRUE(cold_full.converged);
  EXPECT_EQ(cold_inc.relaxations, 0);
  expect_in_band("cold");

  sim::Rng rng(param.seed * 31 + 5);
  std::int64_t total_relaxations = 0;
  for (int step = 0; step < 8; ++step) {
    for (int t = 0; t < 3; ++t) {
      const auto flow = rng.index(csr_inc.num_flows());
      const bool next = !csr_inc.active(flow);
      csr_inc.set_active(flow, next);
      csr_full.set_active(flow, next);
      csr_optimum.set_active(flow, next);
    }
    if (csr_inc.active_count() == 0) {
      csr_inc.set_active(0, true);
      csr_full.set_active(0, true);
      csr_optimum.set_active(0, true);
    }
    const SolveStats inc = solve(csr_inc, ws_inc, opt_inc);
    const SolveStats full = solve(csr_full, ws_full, opt_full);
    ASSERT_TRUE(inc.converged) << "step " << step;
    ASSERT_TRUE(full.converged) << "step " << step;
    total_relaxations += inc.relaxations;
    EXPECT_EQ(full.relaxations, 0);
    expect_in_band("step " + std::to_string(step));
  }
  // Churn-shaped epochs must actually take the worklist path.
  EXPECT_GT(total_relaxations, 0);
}

// Tier-2 determinism: the incremental path is serial (worklist) plus
// wave-deterministic verification sweeps, so its output cannot depend on the
// solver thread count.
TEST_P(CsrSolverRandom, IncrementalIsThreadCountInvariant) {
  const CsrCase param = GetParam();
  const RandomInstance instance =
      make_random(param.alpha, param.flows, param.links, param.seed);
  CsrProblem serial_csr = CsrProblem::compile(instance.problem);
  CsrProblem parallel_csr = CsrProblem::compile(instance.problem);
  NumWorkspace serial_ws;
  NumWorkspace parallel_ws;
  NumSolverOptions serial_options;
  serial_options.incremental = true;
  NumSolverOptions parallel_options = serial_options;
  parallel_options.policy = ExecutionPolicy::parallel(4);

  solve(serial_csr, serial_ws, serial_options);
  solve(parallel_csr, parallel_ws, parallel_options);
  sim::Rng rng(param.seed * 131 + 1);
  for (int step = 0; step < 6; ++step) {
    for (int t = 0; t < 2; ++t) {
      const auto flow = rng.index(serial_csr.num_flows());
      const bool next = !serial_csr.active(flow);
      serial_csr.set_active(flow, next);
      parallel_csr.set_active(flow, next);
    }
    if (serial_csr.active_count() == 0) {
      serial_csr.set_active(0, true);
      parallel_csr.set_active(0, true);
    }
    const SolveStats serial_stats = solve(serial_csr, serial_ws, serial_options);
    const SolveStats parallel_stats =
        solve(parallel_csr, parallel_ws, parallel_options);
    EXPECT_EQ(serial_stats.relaxations, parallel_stats.relaxations)
        << "step " << step;
    EXPECT_EQ(serial_stats.sweeps, parallel_stats.sweeps) << "step " << step;
    EXPECT_TRUE(bitwise_equal(serial_ws.prices(), parallel_ws.prices()))
        << "incremental prices depend on thread count at step " << step;
    EXPECT_TRUE(bitwise_equal(serial_ws.rates(), parallel_ws.rates()))
        << "incremental rates depend on thread count at step " << step;
  }
}

// A workspace whose binding is stale (another workspace solved the problem
// since, consuming the dirty set) must fall back to a full solve rather than
// patch from prices that never saw the missed churn.
TEST(CsrSolverTest, IncrementalFallsBackWhenWorkspaceIsStale) {
  const RandomInstance instance = make_random(1.0, 40, 8, 21);
  CsrProblem csr = CsrProblem::compile(instance.problem);
  NumWorkspace ws_a;
  NumWorkspace ws_b;
  NumSolverOptions options;
  options.incremental = true;

  ASSERT_TRUE(solve(csr, ws_a, options).converged);  // cold, binds ws_a
  csr.set_active(3, false);
  const SolveStats warm_a = solve(csr, ws_a, options);
  ASSERT_TRUE(warm_a.converged);
  EXPECT_GT(warm_a.relaxations, 0) << "warm bound workspace should go incremental";

  csr.set_active(5, false);
  ASSERT_TRUE(solve(csr, ws_b, options).converged);  // cold ws_b consumes dirty set

  csr.set_active(3, true);
  // ws_a's epoch is stale: ws_b's solve advanced it.  The only safe move is a
  // full solve — observable as zero relaxations — and the result must still
  // satisfy KKT.
  const SolveStats stale = solve(csr, ws_a, options);
  ASSERT_TRUE(stale.converged);
  EXPECT_EQ(stale.relaxations, 0);
  EXPECT_LT(kkt_residual(csr, ws_a.rates(), ws_a.prices()), 1e-5);
}

// Satellite: the O(nnz) flow-major link-load pass in kkt_residual must be
// bit-identical to the legacy O(links x flows x path) nested rescan it
// replaced (per-link sums add the same rates in the same increasing-flow-id
// order).
TEST(CsrSolverTest, KktResidualMatchesLegacyNestedScanBitwise) {
  const auto legacy_kkt = [](const NumProblem& problem,
                             const std::vector<double>& rates,
                             const std::vector<double>& prices) {
    double residual = 0.0;
    for (std::size_t i = 0; i < problem.utilities.size(); ++i) {
      double path_price = 0.0;
      for (int l : problem.flow_links[i]) {
        path_price += prices[static_cast<std::size_t>(l)];
      }
      const double marginal = problem.utilities[i]->marginal(rates[i]);
      residual = std::max(residual, std::abs(marginal - path_price) /
                                        std::max(marginal, kMinPrice));
    }
    for (std::size_t l = 0; l < problem.capacities.size(); ++l) {
      double load = 0.0;
      for (std::size_t i = 0; i < problem.flow_links.size(); ++i) {
        for (int k : problem.flow_links[i]) {
          if (static_cast<std::size_t>(k) == l) load += rates[i];
        }
      }
      const double slack = problem.capacities[l] - load;
      residual = std::max(residual, prices[l] * std::max(slack, 0.0) /
                                        problem.capacities[l]);
      residual = std::max(residual, -slack / problem.capacities[l]);
    }
    return residual;
  };

  for (const std::uint64_t seed : {41ull, 42ull, 43ull}) {
    const RandomInstance instance = make_random(1.0, 60, 12, seed);
    const CsrProblem csr = CsrProblem::compile(instance.problem);
    NumWorkspace ws;
    ASSERT_TRUE(solve(csr, ws).converged);
    const std::vector<double> rates(ws.rates().begin(), ws.rates().end());
    const std::vector<double> prices(ws.prices().begin(), ws.prices().end());
    const double fast = kkt_residual(instance.problem, rates, prices);
    const double slow = legacy_kkt(instance.problem, rates, prices);
    ASSERT_EQ(std::memcmp(&fast, &slow, sizeof(double)), 0)
        << "seed " << seed << ": fast=" << fast << " legacy=" << slow;
    // And the CSR overload agrees when every flow is active.
    const double csr_residual = kkt_residual(csr, ws.rates(), ws.prices());
    EXPECT_EQ(csr_residual, fast) << "seed " << seed;
  }
}

// The alpha == 1 fast path replaces pow(x, -1.0) with 1/x.  They are the
// same bit pattern on every x the solver can produce (IEEE-754 pow is exact
// for integer exponent -1 on this libm); this test is the canary that would
// catch a platform where they differ.
TEST(CsrSolverTest, PowMinusOneIsReciprocalBitwise) {
  sim::Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over the solver's realistic price range.
    const double x = std::exp(rng.uniform(std::log(1e-12), std::log(1e12)));
    const double via_pow = std::pow(x, -1.0);
    const double via_div = 1.0 / x;
    ASSERT_EQ(std::memcmp(&via_pow, &via_div, sizeof(double)), 0)
        << "pow(x,-1) != 1/x bitwise at x=" << x;
  }
}

// Re-solving against a reused workspace must not touch the heap: the
// allocs_solver_workspace counter measures it.
TEST(CsrSolverTest, WarmResolveIsAllocationFree) {
  const RandomInstance instance = make_random(1.0, 50, 10, 21);
  CsrProblem csr = CsrProblem::compile(instance.problem);
  NumWorkspace ws;
  solve(csr, ws);  // first solve sizes the buffers

  const std::uint64_t before = sim::substrate_stats().allocs_solver_workspace;
  csr.set_active(3, false);  // row patch — no recompile, no allocation
  solve(csr, ws);
  csr.set_active(3, true);
  ws.reset();  // cold restart reuses the same buffers
  solve(csr, ws);
  const std::uint64_t after = sim::substrate_stats().allocs_solver_workspace;
  EXPECT_EQ(after - before, 0u)
      << "warm re-solve allocated workspace buffers";

  // The incremental path's worklist ring, membership bitmap and sorted seed
  // are workspace buffers too: the first (full fallback) solve sizes them,
  // and churn re-solves through the worklist must not grow them.
  NumWorkspace inc_ws;
  NumSolverOptions incremental;
  incremental.incremental = true;
  solve(csr, inc_ws, incremental);
  const std::uint64_t inc_before =
      sim::substrate_stats().allocs_solver_workspace;
  std::int64_t relaxations = 0;
  for (const std::size_t flow : {3u, 7u, 11u}) {
    csr.set_active(flow, false);
    csr.set_active(flow + 20, false);
    relaxations += solve(csr, inc_ws, incremental).relaxations;
    csr.set_active(flow, true);
    relaxations += solve(csr, inc_ws, incremental).relaxations;
  }
  EXPECT_GT(relaxations, 0) << "churn steps should take the worklist path";
  EXPECT_EQ(sim::substrate_stats().allocs_solver_workspace - inc_before, 0u)
      << "incremental re-solve allocated workspace buffers";
}

// Tolerance-mode regression: a lone flow whose link still carries a stale,
// tiny warm price (~1e-11, far left of the root) must end at line rate, not
// above it.  Far from the root Newton steps are ~p, smaller than the price
// resolution, so a finder that stopped on a small step instead of a closed
// bracket would leave the flow at ~capacity * 1e7.
TEST(CsrSolverTest, IncrementalLoneFlowFromStaleTinyPriceStaysAtCapacity) {
  const double capacity = 10'000.0;  // 10G in Mbps
  const AlphaFairUtility tiny(1.0, 1e-7);  // lone-flow price 1e-11
  const AlphaFairUtility unit(1.0);        // lone-flow price 1e-4
  NumProblem problem;
  problem.capacities = {capacity};
  problem.utilities = {&tiny, &unit};
  problem.flow_links = {{0}, {0}};
  CsrProblem csr = CsrProblem::compile(problem);
  csr.set_active(1, false);

  NumWorkspace ws;
  NumSolverOptions options;
  options.incremental = true;
  options.tolerance = 1e-8;
  ASSERT_TRUE(solve(csr, ws, options).converged);
  ASSERT_LT(ws.prices()[0], 1e-10);

  csr.set_active(0, false);
  csr.set_active(1, true);
  const SolveStats stats = solve(csr, ws, options);
  ASSERT_TRUE(stats.converged);
  EXPECT_GT(stats.relaxations, 0);
  EXPECT_LE(ws.rates()[1], capacity * (1.0 + 1e-6));
  EXPECT_GE(ws.rates()[1], capacity * (1.0 - 1e-6));
  EXPECT_LT(kkt_residual(csr, ws.rates(), ws.prices()), 1e-6);

  // The same stale price handed in explicitly (a full tolerance-mode solve).
  NumWorkspace fresh;
  NumSolverOptions seeded = options;
  seeded.initial_prices = {1e-11};
  ASSERT_TRUE(solve(csr, fresh, seeded).converged);
  EXPECT_LE(fresh.rates()[1], capacity * (1.0 + 1e-6));
}

/// An alpha-fair utility the compiler cannot see through: compiles as a
/// generic (virtual-dispatch) flow with no closed-form slope.
class OpaqueUtility : public UtilityFunction {
 public:
  explicit OpaqueUtility(const AlphaFairUtility& inner) : inner_(inner) {}
  double utility(double x) const override { return inner_.utility(x); }
  double marginal(double x) const override { return inner_.marginal(x); }
  double marginal_inverse(double price) const override {
    return inner_.marginal_inverse(price);
  }

 private:
  const AlphaFairUtility& inner_;
};

// Tolerance-mode solves over generic utilities keep the bisection finder:
// the cold fallback is bitwise the bisection full solve at the tolerance
// resolution (a non-incremental solve seeded with the cold prices), and the
// churn re-solves still converge to the KKT tolerance.
TEST(CsrSolverTest, IncrementalGenericUtilitiesConvergeThroughBisection) {
  const RandomInstance instance = make_random(1.0, 40, 8, 81);
  std::vector<std::unique_ptr<OpaqueUtility>> opaque;
  NumProblem problem = instance.problem;
  for (std::size_t i = 0; i < problem.utilities.size(); ++i) {
    opaque.push_back(std::make_unique<OpaqueUtility>(*instance.utilities[i]));
    problem.utilities[i] = opaque.back().get();
  }
  CsrProblem csr = CsrProblem::compile(problem);
  ASSERT_FALSE(csr.closed_form());
  ASSERT_TRUE(CsrProblem::compile(instance.problem).closed_form());

  NumWorkspace ws;
  NumSolverOptions options;
  options.incremental = true;
  ASSERT_TRUE(solve(csr, ws, options).converged);

  NumWorkspace reference_ws;
  NumSolverOptions reference;
  reference.initial_prices.assign(csr.num_links(), 1.0);
  ASSERT_TRUE(solve(csr, reference_ws, reference).converged);
  EXPECT_TRUE(bitwise_equal(ws.prices(), reference_ws.prices()));
  EXPECT_TRUE(bitwise_equal(ws.rates(), reference_ws.rates()));

  sim::Rng rng(83);
  std::int64_t relaxations = 0;
  for (int step = 0; step < 6; ++step) {
    const auto flow = rng.index(csr.num_flows());
    csr.set_active(flow, !csr.active(flow));
    const SolveStats stats = solve(csr, ws, options);
    ASSERT_TRUE(stats.converged) << "step " << step;
    relaxations += stats.relaxations;
    EXPECT_LT(max_violation(csr, ws.rates()), 1e-5) << "step " << step;
    EXPECT_LT(kkt_residual(csr, ws.rates(), ws.prices()), 1e-5)
        << "step " << step;
  }
  EXPECT_GT(relaxations, 0);
}

// A worklist cascade cut off by the relaxation cap (max_sweeps * num_links)
// leaves links queued.  Their membership bits must be cleared, or a later
// incremental solve could never enqueue them again and would leave their
// prices to the verification sweeps alone.
TEST(CsrSolverTest, CappedCascadeLeavesLinksEnqueueable) {
  const AlphaFairUtility unit(1.0);
  NumProblem problem;
  problem.capacities = {10.0, 20.0};
  problem.utilities = {&unit, &unit, &unit};
  // Flow 0 couples the links; flows 1 and 2 each sit on one of them.
  problem.flow_links = {{0, 1}, {0}, {1}};
  CsrProblem csr = CsrProblem::compile(problem);
  csr.set_active(0, false);

  NumWorkspace ws;
  NumSolverOptions options;
  options.incremental = true;
  ASSERT_TRUE(solve(csr, ws, options).converged);

  // Activating the coupling flow dirties both links.  With a cap of
  // 1 * 2 relaxations: link 0 moves (re-enqueueing link 1, already queued),
  // link 1 moves and re-enqueues link 0, and the cap stops the cascade with
  // link 0 still queued.
  csr.set_active(0, true);
  NumSolverOptions capped = options;
  capped.max_sweeps = 1;
  EXPECT_EQ(solve(csr, ws, capped).relaxations, 2);

  // Only link 0 is dirty now: the worklist must be able to take it.
  csr.set_active(1, false);
  const SolveStats stats = solve(csr, ws, options);
  ASSERT_TRUE(stats.converged);
  EXPECT_GT(stats.relaxations, 0);
  EXPECT_LT(max_violation(csr, ws.rates()), 1e-6);
  EXPECT_LT(kkt_residual(csr, ws.rates(), ws.prices()), 1e-6);
}

/// Two components that share no link, with interleaved link ids so every
/// sweep and wave visits them alternately: A = links {0, 2}, B = links
/// {1, 3, 4, 5}.  Flow 0 (A, two hops) is the one the tests churn.
struct TwoComponents {
  static constexpr std::size_t kChurned = 0;
  static constexpr std::size_t kLinksA[] = {0, 2};
  static constexpr std::size_t kLinksB[] = {1, 3, 4, 5};
  AlphaFairUtility unit{1.0};
  AlphaFairUtility heavy{1.0, 4.0};
  NumProblem problem;

  TwoComponents() {
    problem.capacities = {10.0, 30.0, 20.0, 15.0, 25.0, 40.0};
    problem.utilities = {&heavy, &unit, &unit, &unit,
                         &unit,  &unit, &heavy, &unit};
    problem.flow_links = {{0, 2}, {0}, {2},    {1, 3},
                          {3, 4}, {4, 5}, {1, 5}, {1, 3, 4}};
  }
};

/// Re-solves without churn until a solve finds no stale link (bounded).
/// From then on every link's price is its own relaxation's output.
::testing::AssertionResult settle(const CsrProblem& csr, NumWorkspace& ws,
                                  const NumSolverOptions& options) {
  for (int round = 0; round < 10; ++round) {
    const SolveStats stats = solve(csr, ws, options);
    if (!stats.converged) return ::testing::AssertionFailure() << "diverged";
    if (stats.verifications == 0 && stats.relaxations == 0) {
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure() << "still verifying after 10 solves";
}

// Stale-link verification: churn in component A moves no path price of
// component B, so the incremental solve relaxes no link of B — B's prices
// and rates stay bitwise as they were — and the verification counter only
// covers A's links.  Serial and parallel(4) agree bitwise, counters too.
TEST(CsrSolverTest, VerificationSkipsComponentTheChurnCannotReach) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TwoComponents parts;
    CsrProblem csr = CsrProblem::compile(parts.problem);
    csr.set_active(TwoComponents::kChurned, false);
    NumWorkspace ws;
    NumSolverOptions options;
    options.incremental = true;
    options.policy = ExecutionPolicy::parallel(threads);
    ASSERT_TRUE(solve(csr, ws, options).converged);
    // A solve with nothing changed and nothing stale does no work at all.
    ASSERT_TRUE(settle(csr, ws, options));

    const std::vector<double> prices(ws.prices().begin(), ws.prices().end());
    const std::vector<double> rates(ws.rates().begin(), ws.rates().end());
    const std::uint64_t before = sim::substrate_stats().solver_verifications;
    csr.set_active(TwoComponents::kChurned, true);
    const SolveStats stats = solve(csr, ws, options);
    ASSERT_TRUE(stats.converged);
    EXPECT_GT(stats.relaxations, 0);
    EXPECT_EQ(sim::substrate_stats().solver_verifications - before,
              static_cast<std::uint64_t>(stats.verifications));
    // The cascade's last sub-tolerance moves leave both of A's links stale
    // and nothing else: one verification sweep relaxes exactly those two,
    // where a full sweep would relax all six.
    EXPECT_EQ(stats.sweeps, 1);
    EXPECT_EQ(stats.verifications,
              static_cast<std::int64_t>(std::size(TwoComponents::kLinksA)));
    for (const std::size_t l : TwoComponents::kLinksB) {
      const double a = ws.prices()[l];
      EXPECT_EQ(std::memcmp(&a, &prices[l], sizeof(double)), 0) << "link " << l;
    }
    for (const std::size_t f : {3u, 4u, 5u, 6u, 7u}) {
      const double a = ws.rates()[f];
      EXPECT_EQ(std::memcmp(&a, &rates[f], sizeof(double)), 0) << "flow " << f;
    }
    for (const std::size_t l : TwoComponents::kLinksA) {
      EXPECT_NE(ws.prices()[l], prices[l]) << "link " << l;
    }
    EXPECT_LT(kkt_residual(csr, ws.rates(), ws.prices()), 1e-6);
  }

  // The two thread counts must agree bitwise on every solve's counters and
  // output (the stamps derive from sweep and link id, not execution order).
  const TwoComponents parts;
  CsrProblem serial_csr = CsrProblem::compile(parts.problem);
  CsrProblem parallel_csr = CsrProblem::compile(parts.problem);
  NumWorkspace serial_ws;
  NumWorkspace parallel_ws;
  NumSolverOptions serial;
  serial.incremental = true;
  NumSolverOptions parallel = serial;
  parallel.policy = ExecutionPolicy::parallel(4);
  for (int step = 0; step < 6; ++step) {
    // Toggle A's two-hop flow, and every third step B's flow 6.
    const std::size_t flow = step % 3 == 2 ? 6 : TwoComponents::kChurned;
    const bool next = !serial_csr.active(flow);
    serial_csr.set_active(flow, next);
    parallel_csr.set_active(flow, next);
    const SolveStats a = solve(serial_csr, serial_ws, serial);
    const SolveStats b = solve(parallel_csr, parallel_ws, parallel);
    EXPECT_EQ(a.relaxations, b.relaxations) << "step " << step;
    EXPECT_EQ(a.verifications, b.verifications) << "step " << step;
    EXPECT_EQ(a.sweeps, b.sweeps) << "step " << step;
    EXPECT_TRUE(bitwise_equal(serial_ws.prices(), parallel_ws.prices()))
        << "step " << step;
    EXPECT_TRUE(bitwise_equal(serial_ws.rates(), parallel_ws.rates()))
        << "step " << step;
  }
}

// The stamps can only vouch for links that a converged, uncapped solve
// left clean.  After a worklist stopped by its relaxation cap, and after a
// solve that max_sweeps left unconverged, the next verification sweep must
// relax every non-empty link — component B included, though the churn
// never reached it.
TEST(CsrSolverTest, VerificationCoversEveryLinkAfterCapOrNonConvergence) {
  const TwoComponents parts;
  CsrProblem csr = CsrProblem::compile(parts.problem);
  csr.set_active(TwoComponents::kChurned, false);
  NumWorkspace ws;
  NumSolverOptions options;
  options.incremental = true;
  ASSERT_TRUE(solve(csr, ws, options).converged);
  ASSERT_TRUE(settle(csr, ws, options));
  std::int64_t non_empty = 0;
  for (std::size_t l = 0; l < csr.num_links(); ++l) {
    if (!csr.link_active_flows(l).empty()) ++non_empty;
  }

  // Cap of 1 * 6 relaxations: the heavy two-hop flow starts a cascade
  // between links 0 and 2 that runs longer, and one sweep cannot settle it.
  csr.set_active(TwoComponents::kChurned, true);
  NumSolverOptions capped = options;
  capped.max_sweeps = 1;
  const SolveStats cut = solve(csr, ws, capped);
  EXPECT_EQ(cut.relaxations, static_cast<std::int64_t>(csr.num_links()));
  EXPECT_EQ(cut.sweeps, 1);
  EXPECT_GE(cut.verifications, non_empty);
  ASSERT_FALSE(cut.converged);

  // Nothing changed since, so the worklist is empty: only the previous
  // solve's non-convergence can make this verification sweep full.
  const SolveStats after = solve(csr, ws, capped);
  EXPECT_EQ(after.relaxations, 0);
  EXPECT_EQ(after.sweeps, 1);
  EXPECT_GE(after.verifications, non_empty);
  ASSERT_TRUE(solve(csr, ws, options).converged);
  EXPECT_LT(kkt_residual(csr, ws.rates(), ws.prices()), 1e-6);

  // Converged again: the stamps are trusted once more.
  ASSERT_TRUE(settle(csr, ws, options));
}

// set_active is a row patch: the solve over the active subset must be the
// solve of the freshly compiled subproblem — bitwise, including prices of
// links only the dropped flows used (they go to 0).
TEST(CsrSolverTest, SetActiveMatchesRecompiledSubproblem) {
  const RandomInstance full = make_random(1.0, 30, 8, 31);
  CsrProblem patched = CsrProblem::compile(full.problem);
  const std::vector<std::size_t> dropped = {2, 7, 11, 19, 28};
  for (const std::size_t flow : dropped) patched.set_active(flow, false);
  EXPECT_EQ(patched.active_count(), full.problem.utilities.size() - 5);
  NumWorkspace patched_ws;
  const SolveStats patched_stats = solve(patched, patched_ws);
  ASSERT_TRUE(patched_stats.converged);

  // The same instance with those rows physically removed.
  NumProblem sub;
  sub.capacities = full.problem.capacities;
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < full.problem.utilities.size(); ++i) {
    if (std::find(dropped.begin(), dropped.end(), i) != dropped.end()) {
      continue;
    }
    kept.push_back(i);
    sub.utilities.push_back(full.problem.utilities[i]);
    sub.flow_links.push_back(full.problem.flow_links[i]);
  }
  const CsrProblem sub_csr = CsrProblem::compile(sub);
  NumWorkspace sub_ws;
  const SolveStats sub_stats = solve(sub_csr, sub_ws);
  ASSERT_TRUE(sub_stats.converged);

  EXPECT_EQ(patched_stats.sweeps, sub_stats.sweeps);
  EXPECT_TRUE(bitwise_equal(patched_ws.prices(), sub_ws.prices()));
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const double a = patched_ws.rates()[kept[k]];
    const double b = sub_ws.rates()[k];
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << "active flow " << kept[k] << " rate diverged";
  }
  for (const std::size_t flow : dropped) {
    EXPECT_EQ(patched_ws.rates()[flow], 0.0);
  }
}

// Explicit initial_prices must match the link count exactly (legacy
// contract, preserved through the redesign).
TEST(CsrSolverTest, InitialPricesSizeMismatchThrows) {
  const RandomInstance instance = make_random(1.0, 4, 3, 51);
  const CsrProblem csr = CsrProblem::compile(instance.problem);
  NumWorkspace ws;
  NumSolverOptions options;
  options.initial_prices = {1.0};  // 3 links expected
  EXPECT_THROW(solve(csr, ws, options), std::invalid_argument);
}

// Explicit initial_prices override the workspace's warm state: seeding a
// fresh workspace with a previous solve's prices reproduces the reused
// workspace's warm re-solve exactly.
TEST(CsrSolverTest, ExplicitInitialPricesMatchWorkspaceWarmStart) {
  const RandomInstance instance = make_random(1.0, 25, 6, 61);
  CsrProblem csr = CsrProblem::compile(instance.problem);
  NumWorkspace reused;
  solve(csr, reused);
  const std::vector<double> after_cold(reused.prices().begin(),
                                       reused.prices().end());
  csr.set_active(0, false);
  const SolveStats warm = solve(csr, reused);

  NumWorkspace fresh;
  NumSolverOptions options;
  options.initial_prices = after_cold;
  const SolveStats seeded = solve(csr, fresh, options);
  EXPECT_EQ(warm.sweeps, seeded.sweeps);
  EXPECT_TRUE(bitwise_equal(reused.prices(), fresh.prices()));
  EXPECT_TRUE(bitwise_equal(reused.rates(), fresh.rates()));
}

// Wave schedule sanity: within a wave no two links share an active flow —
// the invariant the parallel executor's bit-identity argument rests on.
TEST(CsrSolverTest, WaveScheduleHasNoIntraWaveConflicts) {
  const RandomInstance instance = make_random(1.0, 60, 12, 71);
  const CsrProblem csr = CsrProblem::compile(instance.problem);
  std::size_t links_seen = 0;
  for (std::size_t w = 0; w < csr.num_waves(); ++w) {
    std::vector<int> flows_in_wave;
    for (const std::int32_t link : csr.wave_links(w)) {
      ++links_seen;
      for (const std::int32_t flow : csr.link_flows(
               static_cast<std::size_t>(link))) {
        EXPECT_EQ(std::find(flows_in_wave.begin(), flows_in_wave.end(), flow),
                  flows_in_wave.end())
            << "flow " << flow << " appears on two links of wave " << w;
        flows_in_wave.push_back(flow);
      }
    }
  }
  EXPECT_EQ(links_seen, csr.num_links());
}

}  // namespace
}  // namespace numfabric::num
