// Micro-benchmarks (google-benchmark) of the substrate primitives that bound
// simulation scale: event queue ops, WFQ enqueue/dequeue, the NUM oracle and
// the water-filler.  These are the "how fast can the simulator go" numbers
// quoted in README.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exp/common.h"
#include "exp/traffic_experiment.h"
#include "flowsim/flow_sim_engine.h"
#include "flowsim/virtual_fabric.h"
#include "net/drop_tail_queue.h"
#include "net/fabric_graph.h"
#include "net/link.h"
#include "net/node.h"
#include "net/routing.h"
#include "net/topology.h"
#include "net/wfq_queue.h"
#include "num/num_solver.h"
#include "num/utility.h"
#include "num/waterfill.h"
#include "num/xwi_fluid.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "transport/control_plane.h"
#include "workload/scenarios.h"
#include "workload/size_distribution.h"

namespace {

using namespace numfabric;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  sim::TimeNs t = 0;
  int sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) queue.push(t += 7, [&sink] { ++sink; });
    while (!queue.empty()) queue.pop().action();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The transports' dominant cancellation shape: every ACK pushes the RTO
  // timer out, i.e. cancel-the-old + push-a-new far-future event, and only
  // the last survivor of a burst ever fires.
  sim::EventQueue queue;
  sim::TimeNs t = 0;
  int sink = 0;
  for (auto _ : state) {
    sim::EventId pending = sim::kNoEvent;
    for (int i = 0; i < 64; ++i) {
      if (pending != sim::kNoEvent) queue.cancel(pending);
      pending = queue.push(t + 1'000'000, [&sink] { ++sink; });
      ++t;
    }
    while (!queue.empty()) queue.pop().action();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = 4096;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule_in(10, tick);
    };
    sim.schedule_in(10, tick);
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SimulatorSelfScheduling);

// Forwards every packet it receives onto `next`: a one-port switch.
class Relay : public net::Node {
 public:
  Relay() : Node(0, "relay") {}
  void receive(net::Packet&& packet) override { next->send(std::move(packet)); }
  net::Link* next = nullptr;
};

// The link/queue layer on its own: per iteration, 256 packets of 1500 B
// cross a chain of four 10 Gb/s links with 1 us of propagation.  The first
// half is paced at 1.5x the serialization time, so every hop finds its
// transmitter idle and the last finish long past (an eager finish event
// would find the queue empty); the second half leaves in one burst that
// queues at the first hop and then flows back to back, each packet waiting
// for the previous one's finish.  Items = packet hops, so items_per_second
// is the forwarding rate of Link::send, the drop-tail queue and the event
// queue.
void BM_LinkForwarding(benchmark::State& state) {
  constexpr int kHops = 4;
  constexpr int kPackets = 256;
  constexpr sim::TimeNs kTx = 1200;  // 1500 B at 10 Gb/s
  sim::Simulator sim;
  net::Host sink(0, "sink");
  std::vector<std::unique_ptr<Relay>> relays;
  std::vector<std::unique_ptr<net::Link>> links(kHops);
  net::Node* dst = &sink;
  for (int hop = kHops - 1; hop >= 0; --hop) {
    links[static_cast<std::size_t>(hop)] = std::make_unique<net::Link>(
        sim, "l", 10e9, sim::micros(1),
        std::make_unique<net::DropTailQueue>(1 << 20), dst);
    if (hop > 0) {
      relays.push_back(std::make_unique<Relay>());
      relays.back()->next = links[static_cast<std::size_t>(hop)].get();
      dst = relays.back().get();
    }
  }
  net::Link& first = *links.front();
  const auto send = [&first] {
    net::Packet p;
    p.type = net::PacketType::kData;
    p.size = 1500;
    first.send(std::move(p));
  };
  for (auto _ : state) {
    const sim::TimeNs start = sim.now();
    const sim::TimeNs gap = kTx * 3 / 2;
    for (int i = 0; i < kPackets / 2; ++i) {
      sim.schedule_at(start + i * gap, send);
    }
    sim.schedule_at(start + kPackets / 2 * gap, [&send] {
      for (int i = 0; i < kPackets / 2; ++i) send();
    });
    sim.run();
    benchmark::DoNotOptimize(sink.stray_packets());
  }
  state.SetItemsProcessed(state.iterations() * kPackets * kHops);
}
BENCHMARK(BM_LinkForwarding);

void BM_WfqEnqueueDequeue(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  net::WfqQueue queue(1 << 30);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < num_flows; ++i) {
      net::Packet p;
      p.flow = static_cast<net::FlowId>(i);
      p.type = net::PacketType::kData;
      p.size = 1500;
      p.seq = seq++;
      p.virtual_packet_len = 1500.0 / (1.0 + i);
      queue.enqueue(std::move(p));
    }
    for (int i = 0; i < num_flows; ++i) benchmark::DoNotOptimize(queue.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * num_flows * 2);
}
BENCHMARK(BM_WfqEnqueueDequeue)->Arg(16)->Arg(256);

void BM_WfqFlowChurn(benchmark::State& state) {
  // Short flows arriving and dying at a high rate: every burst is 32
  // brand-new flows of two packets each.  The second packet pushes each
  // flow's finish tag ahead of the virtual clock, so the clock advances and
  // earlier flows' state becomes idle — exactly the churn
  // garbage_collect_idle_flows exists for.  Per-flow scheduler state
  // accumulates to the GC interval's high-water mark, then gets swept.
  net::WfqQueue queue(1 << 30);
  std::uint64_t seq = 0;
  net::FlowId next_flow = 1;
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      const net::FlowId flow = next_flow++;
      for (int k = 0; k < 2; ++k) {
        net::Packet p;
        p.flow = flow;
        p.type = net::PacketType::kData;
        p.size = 1500;
        p.seq = seq++;
        p.virtual_packet_len = 1500.0;
        queue.enqueue(std::move(p));
      }
    }
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(queue.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 2);
}
BENCHMARK(BM_WfqFlowChurn);

num::NumProblem make_problem(int flows, int links, sim::Rng& rng,
                             std::vector<std::unique_ptr<num::AlphaFairUtility>>& store) {
  num::NumProblem problem;
  problem.capacities.resize(static_cast<std::size_t>(links));
  for (auto& c : problem.capacities) c = rng.uniform(1'000.0, 40'000.0);
  for (int i = 0; i < flows; ++i) {
    store.push_back(std::make_unique<num::AlphaFairUtility>(1.0));
    problem.utilities.push_back(store.back().get());
    std::vector<int> path;
    const int hops = static_cast<int>(rng.uniform_int(2, 4));
    for (int h = 0; h < hops; ++h) {
      const int link = static_cast<int>(rng.index(static_cast<std::size_t>(links)));
      if (std::find(path.begin(), path.end(), link) == path.end()) {
        path.push_back(link);
      }
    }
    problem.flow_links.push_back(std::move(path));
  }
  return problem;
}

void BM_NumSolver(benchmark::State& state) {
  sim::Rng rng(1);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto problem = make_problem(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(0)) / 3 + 2, rng,
                                    store);
  // Compile once, cold-solve per iteration (reset() drops the warm start but
  // keeps the buffers) — the measured loop is pure solver arithmetic.
  const num::CsrProblem csr = num::CsrProblem::compile(problem);
  num::NumWorkspace workspace;
  std::int64_t sweeps = 0;
  for (auto _ : state) {
    workspace.reset();
    sweeps += num::solve(csr, workspace).sweeps;
    benchmark::DoNotOptimize(workspace.rates().data());
  }
  state.SetItemsProcessed(sweeps);  // Gauss-Seidel sweeps/sec
}
BENCHMARK(BM_NumSolver)->Arg(50)->Arg(400);

// Wave-parallel execution of the same solve.  The conflict-graph width caps
// usable parallelism, so this uses a sparser problem (links == flows) whose
// wave layers are wide enough to chunk; results are bit-identical to serial
// for every thread count (locked by CsrSolverTest).
void BM_NumSolverParallel(benchmark::State& state) {
  sim::Rng rng(1);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto problem = make_problem(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(0)), rng, store);
  const num::CsrProblem csr = num::CsrProblem::compile(problem);
  num::NumWorkspace workspace;
  num::NumSolverOptions options;
  options.policy =
      num::ExecutionPolicy::parallel(static_cast<int>(state.range(1)));
  std::int64_t sweeps = 0;
  for (auto _ : state) {
    workspace.reset();
    sweeps += num::solve(csr, workspace, options).sweeps;
    benchmark::DoNotOptimize(workspace.rates().data());
  }
  state.SetItemsProcessed(sweeps);  // Gauss-Seidel sweeps/sec
}
BENCHMARK(BM_NumSolverParallel)
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 8});

void BM_Waterfill(benchmark::State& state) {
  sim::Rng rng(2);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto num_problem = make_problem(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(0)) / 3 + 2,
                                        rng, store);
  num::WaterfillProblem problem;
  problem.flow_links = num_problem.flow_links;
  problem.capacities = num_problem.capacities;
  problem.weights.assign(num_problem.utilities.size(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::weighted_max_min(problem));
  }
  // flow allocations/sec
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Waterfill)->Arg(50)->Arg(400);

void BM_XwiFluid(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto problem = make_problem(100, 30, rng, store);
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const num::XwiFluidResult result = num::xwi_fluid_solve(problem);
    iterations += result.iterations;
    benchmark::DoNotOptimize(result.rates.data());
  }
  state.SetItemsProcessed(iterations);  // xWI price iterations/sec
}
BENCHMARK(BM_XwiFluid);

// A topology of `num_links` xWI-controlled links (as host pairs) wired into
// one batched ControlPlane.
struct ControlPlaneRig {
  sim::Simulator sim;
  net::Topology topo{sim};
  std::unique_ptr<transport::ControlPlane> plane;

  explicit ControlPlaneRig(int num_links) {
    for (int i = 0; i < num_links / 2; ++i) {
      net::Host* a = topo.add_host("a");
      net::Host* b = topo.add_host("b");
      topo.connect(a, b, 10e9, sim::micros(1), [] {
        return std::make_unique<net::DropTailQueue>(1'000'000);
      });
    }
    plane = transport::ControlPlane::attach(
        sim, transport::ControlPlane::Params{}, topo);
  }
};

// Price-tick cost vs link count: one synchronized 30 us interval advances
// all links' xWI price state.  Batched: ONE timer event plus a sweep of the
// SoA arrays in slot order.  before_ns tracks the legacy encoding (one
// XwiLinkAgent timer event + virtual on_update + reschedule per link per
// interval) recorded on the pre-refactor tree.
void BM_ControlPlaneTick(benchmark::State& state) {
  const int num_links = static_cast<int>(state.range(0));
  ControlPlaneRig rig(num_links);
  for (auto _ : state) {
    rig.sim.run_until(rig.sim.now() + sim::micros(30));
  }
  state.SetItemsProcessed(state.iterations() * num_links);
}
BENCHMARK(BM_ControlPlaneTick)->Arg(16)->Arg(128)->Arg(1024);

// Data-path hook + tick churn: a saturated 10G link forwards 64-packet data
// bursts while the 30 us price tick runs.  Exercises the per-packet
// enqueue/dequeue hook (batched: index-addressed SoA writes; legacy
// before_ns: two virtual calls per packet) together with the tick machinery.
void BM_PriceTickChurn(benchmark::State& state) {
  ControlPlaneRig rig(2);
  net::Link* link = rig.topo.links()[0].get();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      net::Packet p;
      p.flow = 1;
      p.type = net::PacketType::kData;
      p.size = 1500;
      p.seq = seq++;
      p.normalized_residual = 0.01;
      link->send(std::move(p));
    }
    // 64 * 1500 B at 10 Gbps = 76.8 us of serialization: drain past it.
    rig.sim.run_until(rig.sim.now() + sim::micros(80));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PriceTickChurn);

// The fluid-FCT oracle's dominant cost: re-solving the NUM problem after a
// small active-set change.  Exactly the oracle's production shape now: the
// departure is a set_active row patch on the compiled problem, the re-solve
// warm-starts from the base optimum in a reused workspace (allocation-free).
// before_ns tracks the legacy path — rebuild the NumProblem minus one flow,
// cold restart at 1.0 everywhere, allocate everything per solve.
void BM_NumSolverWarmStart(benchmark::State& state) {
  sim::Rng rng(7);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto base = make_problem(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) / 3 + 2, rng,
                                 store);
  num::CsrProblem csr = num::CsrProblem::compile(base);
  num::NumWorkspace workspace;
  const num::SolveStats base_stats = num::solve(csr, workspace);
  benchmark::DoNotOptimize(base_stats.sweeps);
  const std::vector<double> base_prices(workspace.prices().begin(),
                                        workspace.prices().end());
  num::NumSolverOptions options;
  std::size_t drop = 0;
  std::int64_t sweeps = 0;
  for (auto _ : state) {
    // One flow leaves; the rest of the problem (and its prices) barely move.
    csr.set_active(drop, false);
    options.initial_prices = base_prices;
    sweeps += num::solve(csr, workspace, options).sweeps;
    benchmark::DoNotOptimize(workspace.rates().data());
    csr.set_active(drop, true);
    drop = (drop + 1) % csr.num_flows();
  }
  state.SetItemsProcessed(sweeps);  // Gauss-Seidel sweeps/sec
}
BENCHMARK(BM_NumSolverWarmStart)->Arg(50)->Arg(400);

// One grid epoch of the flow-fluid engine at 10^3 / 10^5 concurrent flows:
// a warm NUM re-solve on the virtual leaf-spine plus an O(active) analytic
// advance of remaining bytes.  The flow set is compiled once outside the
// timed loop; reset() replays the identical workload whenever a run drains,
// so the loop meters steady-state per-epoch cost — the number that bounds
// mega-fct wall time.
void BM_FlowSimEpoch(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  const flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 32,
                                         .leaves = 32,
                                         .spines = 8,
                                         .host_rate = 10e3,
                                         .leaf_spine_rate = 40e3};
  static num::AlphaFairUtility utility(1.0);
  sim::Rng rng(11);
  const auto draws = workload::batch_index_flows(
      fabric.hosts(), num_flows, workload::websearch_distribution(), rng);
  std::vector<flowsim::FlowSimFlow> flows(draws.size());
  for (std::size_t i = 0; i < draws.size(); ++i) {
    flows[i] = {0.0, static_cast<double>(draws[i].size_bytes),
                fabric.path(draws[i].src, draws[i].dst, i + 1), &utility};
  }
  flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = 1e-3;
  // Match the mega-fct scenario's solver configuration (grid-quantized FCTs
  // don't benefit from tighter prices — see MegaFctOptions::solver_tolerance).
  options.solver.tolerance = 1e-5;
  options.solver.incremental = true;
  flowsim::FlowSimEngine engine(std::move(flows), fabric.capacities(), options);
  std::int64_t epochs = 0;
  for (auto _ : state) {
    if (engine.finished()) engine.reset();
    engine.step();
    ++epochs;
  }
  state.SetItemsProcessed(epochs);  // epochs/sec
}
BENCHMARK(BM_FlowSimEpoch)->Arg(1000)->Arg(100000);

// Same steady-state epoch cost on a jellyfish: paths come from k-shortest
// paths over the random regular graph (exp::pair_paths' ToR-pair table)
// instead of the closed-form leaf-spine enumeration, but the per-epoch work
// must stay the same shape — warm re-solve + O(active) advance.
void BM_FlowSimEpochJellyfish(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  net::JellyfishOptions jf;
  jf.switches = 64;
  jf.ports = 8;
  jf.hosts = 1024;
  jf.seed = 5;
  jf.host_rate_bps = 10e9;
  jf.switch_rate_bps = 40e9;
  exp::BuiltFabric fabric = exp::plan_fabric({}, jf, 8);
  static num::AlphaFairUtility utility(1.0);
  sim::Rng rng(11);
  const auto draws = workload::batch_index_flows(
      static_cast<int>(fabric.host_nodes.size()), num_flows,
      workload::websearch_distribution(), rng);
  std::vector<flowsim::FlowSimFlow> flows(draws.size());
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const exp::PairPaths paths = exp::pair_paths(
        fabric, fabric.host_nodes[static_cast<std::size_t>(draws[i].src)],
        fabric.host_nodes[static_cast<std::size_t>(draws[i].dst)]);
    flows[i] = {0.0, static_cast<double>(draws[i].size_bytes),
                paths[net::ecmp_index(paths.size(), i + 1)], &utility};
  }
  flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = 1e-3;
  options.solver.tolerance = 1e-5;
  options.solver.incremental = true;
  flowsim::FlowSimEngine engine(std::move(flows),
                                exp::graph_capacities(fabric.graph), options);
  std::int64_t epochs = 0;
  for (auto _ : state) {
    if (engine.finished()) engine.reset();
    engine.step();
    ++epochs;
  }
  state.SetItemsProcessed(epochs);  // epochs/sec
}
BENCHMARK(BM_FlowSimEpochJellyfish)->Arg(1000)->Arg(100000);

// Churn-shaped epoch: a steady ~2k-flow active sliver drawn from a much
// larger compiled flow set (10^5 / 10^6 flows), with ~8 arrivals and ~8
// departures per 1 ms epoch.  This is the mega-fct steady state: per-epoch
// cost should track the churn (the handful of flows entering and leaving),
// not the compiled history sitting inactive in the CSR rows.
void BM_FlowSimChurnEpoch(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  const flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 32,
                                         .leaves = 32,
                                         .spines = 8,
                                         .host_rate = 10e3,
                                         .leaf_spine_rate = 40e3};
  static num::AlphaFairUtility utility(1.0);
  const int kSliver = 2048;    // concurrently-active steady state
  const double kGap = 125e-6;  // one arrival per 125 us ~ 8 per epoch
  const double kBytes = 1.5e8;  // ~250 epochs of life at fair share
  sim::Rng rng(13);
  std::vector<flowsim::FlowSimFlow> flows(num_flows);
  for (int i = 0; i < num_flows; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, fabric.hosts() - 1));
    int dst = static_cast<int>(rng.uniform_int(0, fabric.hosts() - 2));
    if (dst >= src) ++dst;
    // The initial sliver arrives at t=0 with sizes staggered so departures
    // trickle from the first epoch on; later flows arrive one per 125 us at
    // full size, replacing the departed.
    const bool initial = i < kSliver;
    const double arrival = initial ? 0.0 : kGap * (i - kSliver + 1);
    const double bytes = initial ? kBytes * (i + 1) / kSliver : kBytes;
    flows[i] = {arrival, bytes, fabric.path(src, dst, i + 1), &utility};
  }
  flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = 1e-3;
  options.solver.tolerance = 1e-5;
  options.solver.incremental = true;  // the mega-fct default at this scale
  flowsim::FlowSimEngine engine(std::move(flows), fabric.capacities(),
                                options);
  for (int i = 0; i < 16; ++i) engine.step();  // establish the sliver, warm
  std::int64_t epochs = 0;
  for (auto _ : state) {
    if (engine.finished()) engine.reset();
    engine.step();
    ++epochs;
  }
  state.SetItemsProcessed(epochs);  // epochs/sec
}
BENCHMARK(BM_FlowSimChurnEpoch)->Arg(100000)->Arg(1000000);

// One exact-mode step in the shape of bench/e2e's flow-exact workload: the
// 16x8x4 leaf-spine's capacities (10G hosts, 40G core), Poisson web-search
// arrivals at load 0.3, tolerance 1e-8, incremental re-solves.  Each step
// admits or retires a flow and warm re-solves ~100 active flows: a worklist
// of a few dozen relaxations, then verification.  This is the per-event
// cost of the fluid oracle behind every packet FCT run.
void BM_FlowSimExactStep(benchmark::State& state) {
  const flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 16,
                                         .leaves = 8,
                                         .spines = 4,
                                         .host_rate = 10e3,
                                         .leaf_spine_rate = 40e3};
  static num::AlphaFairUtility utility(1.0);
  const workload::SizeDistribution& sizes = workload::websearch_distribution();
  const int kFlows = 2000;
  // workload::poisson_flows' rate: load * aggregate NIC bps / mean flow bits.
  const double mean_gap = 8.0 * sizes.mean_bytes() /
                          (0.3 * fabric.hosts() * fabric.host_rate *
                           num::kRateUnitBps);
  sim::Rng rng(17);
  std::vector<flowsim::FlowSimFlow> flows(kFlows);
  double arrival = 0.0;
  for (int i = 0; i < kFlows; ++i) {
    arrival += rng.exponential(mean_gap);
    const auto bytes = static_cast<double>(sizes.sample(rng));
    const auto hosts = static_cast<std::size_t>(fabric.hosts());
    const auto src = rng.index(hosts);
    auto dst = rng.index(hosts - 1);
    if (dst >= src) ++dst;
    flows[i] = {arrival, bytes,
                fabric.path(static_cast<int>(src), static_cast<int>(dst),
                            static_cast<std::uint64_t>(i + 1)),
                &utility};
  }
  flowsim::FlowSimOptions options;  // resolve interval 0: exact mode
  options.solver.tolerance = 1e-8;
  options.solver.incremental = true;
  flowsim::FlowSimEngine engine(std::move(flows), fabric.capacities(),
                                options);
  std::int64_t steps = 0;
  for (auto _ : state) {
    if (engine.finished()) engine.reset();
    engine.step();
    ++steps;
  }
  state.SetItemsProcessed(steps);  // steps/sec
}
BENCHMARK(BM_FlowSimExactStep);

// Yen's k-shortest-paths over a jellyfish, the routing cost the fabric zoo
// adds: one ordered host pair per iteration, cycling sources so the metered
// mix covers distinct pair distances rather than one cached pair.
void BM_KShortestPaths(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const net::FabricGraph graph = net::make_jellyfish(
      {.switches = 64, .ports = 8, .hosts = 128, .seed = 5});
  const int first_host = 64;  // switches precede hosts
  const int dst = first_host + 127;
  int src = first_host;
  std::int64_t pairs = 0;
  for (auto _ : state) {
    const auto paths = net::k_shortest_paths(graph, src, dst, k);
    benchmark::DoNotOptimize(paths.size());
    if (++src == dst) src = first_host;
    ++pairs;
  }
  state.SetItemsProcessed(pairs);  // pairs/sec
}
BENCHMARK(BM_KShortestPaths)->Arg(4)->Arg(16);

// The path pick of flow-exact's set-up: 10k Poisson web-search arrivals at
// load 0.3 on the paper's 16x8x4 fabric, each host pair routed with
// exp::pair_paths + net::ecmp_index and the pick copied out, as the runner
// does.  Every iteration starts from a freshly planned fabric (outside the
// timer), so the route table fills exactly as it does in one run.
void BM_PairPaths(benchmark::State& state) {
  const net::LeafSpineOptions shape{
      .hosts_per_leaf = 16, .num_leaves = 8, .num_spines = 4};
  sim::Simulator sim;
  net::Topology topo(sim);
  exp::BuiltFabric planned = exp::plan_fabric(shape, std::nullopt, 8);
  exp::materialize_fabric(planned, topo, net::drop_tail_factory());
  sim::Rng rng(5);
  const auto arrivals = workload::poisson_flows(
      planned.mat.hosts, planned.host_rate_bps, 0.3,
      workload::websearch_distribution(), 10000, rng);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(arrivals.size());
  for (const auto& arrival : arrivals) {
    pairs.emplace_back(planned.host_node.at(arrival.pair.src),
                       planned.host_node.at(arrival.pair.dst));
  }
  std::optional<exp::BuiltFabric> built;
  std::int64_t picks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    built.emplace(exp::plan_fabric(shape, std::nullopt, 8));
    state.ResumeTiming();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& paths =
          exp::pair_paths(*built, pairs[i].first, pairs[i].second);
      const std::vector<int> links =
          paths[net::ecmp_index(paths.size(), i + 1)];
      benchmark::DoNotOptimize(links.data());
    }
    picks += static_cast<std::int64_t>(pairs.size());
  }
  state.SetItemsProcessed(picks);  // picks/sec
}
BENCHMARK(BM_PairPaths);

// The sharded parallel engine end to end: one permutation rate-mode
// experiment (4-leaf/16-host fabric, 3 ms simulated) per iteration at
// --shards = 1 / 2 / 4.  Items = simulator events, so items_per_second is
// whole-engine event throughput including setup, barriers and the rank
// merge (it fell when links stopped pushing idle serialization finishes:
// fewer events for the same simulated traffic).  Median wall time of six
// runs on a 4-vCPU KVM guest: ~29 ms at Arg(1), ~69 ms at Arg(2) and at
// Arg(4): this fabric's windows hold so few events that the two futex
// handoffs per window outweigh the parallel work.
// Measured as whole-process cpu time + wall throughput: the default
// main-thread-only cpu clock would miss the worker threads entirely and
// make the sharded legs look several times faster than serial.
void BM_ShardedFabric(benchmark::State& state) {
  exp::TrafficOptions options;
  options.topology.hosts_per_leaf = 4;
  options.topology.num_leaves = 4;
  options.topology.num_spines = 2;
  options.pattern = exp::TrafficPattern::kPermutation;
  options.warmup = sim::millis(1);
  options.measure = sim::millis(2);
  options.seed = 3;
  options.shards = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const exp::TrafficResult result = exp::run_traffic_experiment(options);
    events += result.sim_events;
    benchmark::DoNotOptimize(result.total_goodput_bps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));  // events/sec
}
BENCHMARK(BM_ShardedFabric)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
