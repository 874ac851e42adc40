// Quickstart: build a dumbbell, run NUMFabric with weighted proportional
// fairness, and watch the allocation follow the weights.
//
//   $ ./build/examples/quickstart
//
// Walks through the full public API surface: Simulator -> Fabric ->
// Topology builders -> FlowSpec (+ utility) -> run -> measurements.
#include <cstdio>

#include "net/routing.h"
#include "net/topology.h"
#include "num/utility.h"
#include "transport/fabric.h"
#include "transport/receiver.h"

using namespace numfabric;

int main() {
  // 1. The simulator clock and the NUMFabric wiring (WFQ queues + the xWI
  //    control plane, Table 2 default parameters).
  sim::Simulator sim;
  transport::Fabric fabric(sim, {.scheme = transport::Scheme::kNumFabric});

  // 2. A dumbbell: 2 sender/receiver pairs around one 10 Gbps bottleneck.
  net::Topology topo(sim);
  const net::Dumbbell dumbbell = net::build_dumbbell(
      topo, /*n=*/2, /*edge_bps=*/40e9, /*bottleneck_bps=*/10e9,
      /*delay=*/sim::micros(2), fabric.queue_factory());
  fabric.attach_agents(topo);

  // 3. Two long-running flows with weighted proportional-fair utilities:
  //    U(x) = w log x with weights 1 and 3 -> rates should split 1:3.
  const num::AlphaFairUtility weight1(/*alpha=*/1.0, /*weight=*/1.0);
  const num::AlphaFairUtility weight3(/*alpha=*/1.0, /*weight=*/3.0);
  std::vector<transport::Flow*> flows;
  for (int i = 0; i < 2; ++i) {
    transport::FlowSpec spec;
    spec.src = dumbbell.senders[static_cast<std::size_t>(i)];
    spec.dst = dumbbell.receivers[static_cast<std::size_t>(i)];
    spec.size_bytes = 0;  // long-running
    spec.utility = i == 0 ? &weight1 : &weight3;
    spec.path = net::all_shortest_paths(topo, spec.src, spec.dst).front();
    flows.push_back(fabric.add_flow(std::move(spec)));
  }

  // 4. Run and report the destination-measured rates every millisecond.
  std::printf("time(ms)  flow1(Gbps)  flow2(Gbps)   [expect 2.5 / 7.5]\n");
  for (int ms = 1; ms <= 8; ++ms) {
    sim.run_until(sim::millis(ms));
    std::printf("%7d %12.2f %12.2f\n", ms,
                flows[0]->receiver().rate_bps() / 1e9,
                flows[1]->receiver().rate_bps() / 1e9);
  }
  return 0;
}
