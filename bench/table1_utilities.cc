// Table 1: utility functions for several allocation policies.
//
// For each row of Table 1 this bench solves a small NUM instance with the
// corresponding utility (via the exact oracle and the fluid xWI iteration)
// and prints the resulting allocation next to the closed-form expectation,
// demonstrating that the utility encodes the intended policy.
#include <cstdio>
#include <memory>
#include <vector>

#include "num/bandwidth_function.h"
#include "num/bwe_waterfill.h"
#include "num/csr_problem.h"
#include "num/num_solver.h"
#include "num/utility.h"
#include "num/xwi_fluid.h"

namespace {

using namespace numfabric::num;

// Oracle rates via the compiled CSR path.
std::vector<double> oracle_rates(const NumProblem& problem) {
  const CsrProblem csr = CsrProblem::compile(problem);
  NumWorkspace workspace;
  solve(csr, workspace, {});
  return {workspace.rates().begin(), workspace.rates().end()};
}

void print_row(const char* label, const std::vector<double>& rates,
               const char* expectation) {
  std::printf("  %-38s [", label);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("%s%7.1f", i ? ", " : "", rates[i]);
  }
  std::printf(" ] Mbps   expected: %s\n", expectation);
}

void alpha_fairness() {
  std::printf("Row 1 — flexible alpha-fairness (2 flows over links A+B vs B):\n");
  // Parking lot with capacities 9/9: proportional fairness (alpha=1) gives
  // the 2-hop flow C/3; max-min (alpha->inf) gives C/2; alpha=0.5 favors
  // throughput (2-hop flow gets less).
  for (double alpha : {0.5, 1.0, 2.0, 8.0}) {
    AlphaFairUtility u(alpha);
    NumProblem problem;
    problem.utilities = {&u, &u, &u};
    problem.flow_links = {{0, 1}, {0}, {1}};
    problem.capacities = {9000, 9000};
    const auto rates = oracle_rates(problem);
    char label[64];
    std::snprintf(label, sizeof(label), "alpha = %.1f", alpha);
    print_row(label, rates,
              alpha == 1.0 ? "(3000, 6000, 6000) for alpha=1"
                           : "long flow rises with alpha");
  }
}

void weighted_alpha_fairness() {
  std::printf("\nRow 2 — weighted alpha-fairness (weights 1:3 on one link):\n");
  AlphaFairUtility u1(1.0, 1.0), u3(1.0, 3.0);
  NumProblem problem;
  problem.utilities = {&u1, &u3};
  problem.flow_links = {{0}, {0}};
  problem.capacities = {10'000};
  const auto rates = oracle_rates(problem);
  print_row("weights (1, 3)", rates, "(2500, 7500)");
}

void fct_minimization() {
  std::printf("\nRow 3 — minimize FCT (weight 1/size, eps = 0.125):\n");
  // Two flows, sizes 100 KB vs 10 MB, one 10G link: the small flow gets
  // almost everything (Shortest-Flow-First behavior).
  const auto small = make_fct_utility(100e3);
  const auto large = make_fct_utility(10e6);
  NumProblem problem;
  problem.utilities = {small.get(), large.get()};
  problem.flow_links = {{0}, {0}};
  problem.capacities = {10'000};
  const auto rates = oracle_rates(problem);
  print_row("sizes (100 KB, 10 MB)", rates,
            "small flow takes nearly the whole link");
}

void resource_pooling() {
  std::printf("\nRow 4 — resource pooling (aggregate utility; fluid model):\n");
  // Two parallel 10G paths; flow A has sub-flows on both, flow B only on
  // path 2.  Pooling: aggregate proportional fairness gives A 10 + 5 and
  // B 5 (A's aggregate 15000); without pooling (per-sub-flow fairness) the
  // allocation on path 2 is also 5000/5000 — but A's aggregate utility is
  // what changes.  Here we print the pooled optimum from the NUM oracle on
  // sub-flow variables (aggregate log utility is optimized when B gets half
  // of path 2).
  // Fluid check with aggregate handled analytically: A = 15000, B = 5000.
  AlphaFairUtility u(1.0);
  NumProblem problem;  // per-subflow proportional fairness, for contrast
  problem.utilities = {&u, &u, &u};
  problem.flow_links = {{0}, {1}, {1}};
  problem.capacities = {10'000, 10'000};
  const auto rates = oracle_rates(problem);
  std::vector<double> aggregates = {rates[0] + rates[1],
                                    rates[2]};
  print_row("no pooling: (A, B) aggregates", aggregates,
            "(15000, 5000) — equals pooling here");
  std::printf("    (Fig. 8 exercises the packet-level pooling heuristic; the fluid\n"
              "     aggregate optimum for this topology is A=15000, B=5000.)\n");
}

void bandwidth_functions() {
  std::printf("\nRow 5 — bandwidth functions (Fig. 2 pair, alpha = 5):\n");
  const BandwidthFunction b1 = fig2_flow1();
  const BandwidthFunction b2 = fig2_flow2();
  BandwidthFunctionUtility u1(b1, 5.0), u2(b2, 5.0);
  for (double capacity : {10'000.0, 25'000.0}) {
    NumProblem problem;
    problem.utilities = {&u1, &u2};
    problem.flow_links = {{0}, {0}};
    problem.capacities = {capacity};
    const auto rates = oracle_rates(problem);

    BweProblem bwe;
    bwe.functions = {&b1, &b2};
    bwe.flow_links = {{0}, {0}};
    bwe.capacities = {capacity};
    const auto expected = bwe_waterfill(bwe);
    char label[64], expect[64];
    std::snprintf(label, sizeof(label), "C = %.0f Gbps (NUM, alpha=5)",
                  capacity / 1000);
    std::snprintf(expect, sizeof(expect), "water-fill (%.0f, %.0f)",
                  expected.rates[0], expected.rates[1]);
    print_row(label, rates, expect);
  }
}

void xwi_agreement() {
  std::printf("\nCross-check — fluid xWI reaches the same optimum (alpha = 1):\n");
  AlphaFairUtility u(1.0);
  NumProblem problem;
  problem.utilities = {&u, &u, &u};
  problem.flow_links = {{0, 1}, {0}, {1}};
  problem.capacities = {9000, 9000};
  const auto oracle = oracle_rates(problem);
  const auto xwi = xwi_fluid_solve(problem);
  print_row("oracle", oracle, "(3000, 6000, 6000)");
  print_row("xWI fixed point", xwi.rates, "same");
  std::printf("  xWI iterations to fixed point: %d\n", xwi.iterations);
}

}  // namespace

int main() {
  std::printf("=== Table 1 — utility functions for allocation policies ===\n\n");
  alpha_fairness();
  weighted_alpha_fairness();
  fct_minimization();
  resource_pooling();
  bandwidth_functions();
  xwi_agreement();
  return 0;
}
