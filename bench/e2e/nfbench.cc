// nfbench: the in-process harness behind bench/e2e/run.py.
//
// Runs one benchmark workload by making the same public calls, in the same
// order, as the matching exp:: runner.  Because the harness makes those calls
// itself it can time every layer from the outside, without instrumenting the
// program.  An untraced run reads the clock only at the start, at the
// setup/run boundary and at the end.  --trace=<file> also opens a span
// around each layer call, takes sim::substrate_stats() deltas around it,
// writes the spans as Chrome trace-event JSON (loadable in Perfetto) and
// reports per-layer metrics.  --check is the parity gate: each workload at
// smoke size must reproduce its exp:: runner's result bit for bit.
//
//   nfbench --workload=<name> [--seed=N] [--smoke] [--trace=<file>]
//   nfbench --check [--seed=N]
//
// A workload run prints one JSON object on stdout.  Exit status: 0 = all
// correctness checks passed, 1 = a check or parity assertion failed,
// 2 = bad usage, 3 = the run threw or the trace could not be written.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/common.h"
#include "exp/dynamic_workload.h"
#include "exp/flow_fidelity.h"
#include "exp/traffic_experiment.h"
#include "flowsim/flow_sim_engine.h"
#include "net/routing.h"
#include "num/fluid_fct_oracle.h"
#include "num/utility.h"
#include "sim/random.h"
#include "sim/sharded_simulator.h"
#include "sim/substrate_stats.h"
#include "stats/summary.h"
#include "transport/fabric.h"
#include "transport/receiver.h"
#include "workload/scenarios.h"

namespace nf = numfabric;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload sizes.  One full-size instance takes 0.5-3 host seconds, so a
// timed run averages many instances; smoke size is the parity gate's.
// ---------------------------------------------------------------------------

struct Sizes {
  int mega_flows;        // mega-batch: concurrent flows, all at t = 0
  int exact_flows;       // flow-exact: Poisson flows at load 0.3
  int websearch_flows;   // packet-websearch: Poisson flows at load 0.6
  int measure_ms;        // packet-permutation: measure window after warmup
};

constexpr Sizes kFullSizes{60'000, 10'000, 800, 8};
constexpr Sizes kSmokeSizes{4'000, 500, 100, 2};

nf::exp::MegaFctOptions mega_batch_options(const Sizes& sizes,
                                           std::uint64_t seed) {
  // Defaults are the mega-fct scenario's: 32x32x8 virtual leaf-spine at
  // 10G/40G, 1 ms re-solve grid, tolerance 1e-5, incremental re-solves.
  nf::exp::MegaFctOptions options;
  options.concurrent = sizes.mega_flows;
  options.seed = seed;
  return options;
}

nf::exp::DynamicWorkloadOptions websearch_options(int flows, double load,
                                                  std::uint64_t seed) {
  // Defaults: NUMFabric on the paper's 16x8x4 leaf-spine (10G/40G, 2 us
  // hops), web-search sizes, 20 s horizon.
  nf::exp::DynamicWorkloadOptions options;
  options.flow_count = flows;
  options.load = load;
  options.seed = seed;
  return options;
}

// flow-exact runs at load 0.3, where the active set is stationary and its
// cost grows linearly with the flow count; at 0.6 the heavy-tailed active
// set keeps growing for the whole run.
nf::exp::DynamicWorkloadOptions flow_exact_options(const Sizes& sizes,
                                                   std::uint64_t seed) {
  return websearch_options(sizes.exact_flows, 0.3, seed);
}

nf::exp::DynamicWorkloadOptions packet_websearch_options(const Sizes& sizes,
                                                         std::uint64_t seed) {
  return websearch_options(sizes.websearch_flows, 0.6, seed);
}

nf::exp::TrafficOptions permutation_options(const Sizes& sizes,
                                            std::uint64_t seed, int shards) {
  // NUMFabric long-running permutation on 16x8x4, 8 ms warmup.
  nf::exp::TrafficOptions options;
  options.pattern = nf::exp::TrafficPattern::kPermutation;
  options.measure = nf::sim::millis(sizes.measure_ms);
  options.seed = seed;
  options.shards = shards;
  return options;
}

// ---------------------------------------------------------------------------
// Tracing: spans and counter deltas around each layer call.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double start_s;  // since the run started
  double end_s;
  int parent;      // index into the span list; -1 for the root
};

/// Spans of one run, kept in memory until the run ends.  When tracing is off
/// every call returns at once and no clock is read.
class Tracer {
 public:
  Tracer(bool on, Clock::time_point t0) : on_(on), t0_(t0) {}

  bool on() const { return on_; }
  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  void open(const char* name) {
    if (!on_) return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost span; returns its duration (0 when off).
  double close() {
    if (!on_) return 0.0;
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    span.end_s = now_s();
    return span.end_s - span.start_s;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// What a run measured besides its product result.  Untraced, it reads the
/// clock three times: here, at the setup/run boundary and in finish().
struct Probe {
  Probe(bool traced, const char* workload) : trace(traced, Clock::now()) {
    trace.open(workload);  // the root span
  }

  Tracer trace;
  double setup_s = 0;    // clock at the setup/run boundary
  double wall_s = 0;     // clock when the product result was complete
  double sim_s = 0;      // simulated seconds covered
  // Traced flow workloads: one sample per FlowSimEngine::step().
  std::vector<double> step_us;
  std::vector<double> solve_us;
  nf::sim::SubstrateStats solver;     // counter deltas summed over steps
  std::int64_t epochs = 0;
  std::size_t peak_active = 0;
  // flow-exact: the engine's own FCTs, before the runner adds a base RTT.
  std::vector<double> engine_fct_s;
  // Traced packet workloads: counter deltas over the engine run.
  nf::sim::SubstrateStats substrate;
  std::uint64_t sim_events = 0;
  std::vector<nf::sim::ShardPerf> shard_perf;

  void mark_setup_end() { setup_s = trace.now_s(); }
  void finish() {
    trace.close();
    wall_s = trace.now_s();
  }
};

/// Runs `body` inside a span named `name` and returns its result.
template <typename F>
decltype(auto) layer(Probe& probe, const char* name, F&& body) {
  struct Close {
    Tracer& trace;
    ~Close() { trace.close(); }
  } close{probe.trace};
  probe.trace.open(name);
  return body();
}

/// Steps a compiled engine to completion.  Untraced this is exactly
/// FlowSimEngine::run(); traced it steps one epoch at a time so each step()
/// gets a span and a solver-counter delta, then calls run() on the finished
/// engine, which only adds the flowsim_* counters and returns the result.
nf::flowsim::FlowSimResult run_engine(nf::flowsim::FlowSimEngine& engine,
                                      Probe& probe) {
  probe.mark_setup_end();
  if (probe.trace.on()) {
    bool more = true;
    while (more) {
      const nf::sim::SubstrateStats before = nf::sim::substrate_stats();
      probe.trace.open("flowsim.step");
      more = engine.step();
      probe.step_us.push_back(probe.trace.close() * 1e6);
      const nf::sim::SubstrateStats delta =
          nf::sim::substrate_stats() - before;
      if (delta.solver_solves > 0) {
        probe.solve_us.push_back(static_cast<double>(delta.solver_wall_ns) /
                                 1e3);
      }
      probe.solver += delta;
    }
  }
  nf::flowsim::FlowSimResult result = engine.run();
  probe.sim_s = result.end_seconds;
  probe.epochs = result.epochs;
  probe.peak_active = result.peak_active;
  return result;
}

/// Runs the packet engine's `body` inside the sim.run span with counter
/// deltas.
template <typename F>
void run_packets(Probe& probe, F&& body) {
  probe.mark_setup_end();
  const nf::sim::SubstrateStats before = nf::sim::substrate_stats();
  layer(probe, "sim.run", body);
  if (probe.trace.on()) probe.substrate = nf::sim::substrate_stats() - before;
}

// ---------------------------------------------------------------------------
// The four workloads.  Each mirrors one exp:: runner call for call; --check
// holds them to that.
// ---------------------------------------------------------------------------

/// The engine options exp::flow_fidelity builds for its runners.
nf::flowsim::FlowSimOptions engine_options(double resolve_interval_seconds,
                                           double horizon_seconds,
                                           int solver_threads, bool incremental,
                                           double tolerance) {
  nf::flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = resolve_interval_seconds;
  options.horizon_seconds = horizon_seconds;
  options.solver.tolerance = tolerance;
  options.solver.policy = nf::num::ExecutionPolicy::parallel(solver_threads);
  options.solver.incremental = incremental;
  return options;
}

/// exp::run_mega_fct on the index-arithmetic leaf-spine.
nf::exp::MegaFctResult bench_mega_batch(const nf::exp::MegaFctOptions& options,
                                        Probe& probe) {
  nf::sim::Rng rng(options.seed);
  const int hosts = options.fabric.hosts();
  const std::vector<nf::workload::IndexFlow> batch =
      layer(probe, "workload.draw", [&] {
        return nf::workload::batch_index_flows(hosts, options.concurrent,
                                               *options.sizes, rng);
      });

  const nf::num::AlphaFairUtility utility(options.alpha);
  std::vector<nf::flowsim::FlowSimFlow> engine_flows;
  nf::exp::MegaFctResult result;
  layer(probe, "net.path_pick", [&] {
    engine_flows.reserve(batch.size());
    result.hosts = hosts;
    result.links = options.fabric.links();
    result.size_bytes.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      nf::flowsim::FlowSimFlow flow;
      flow.arrival_seconds = 0.0;
      flow.size_bytes = static_cast<double>(batch[i].size_bytes);
      flow.links = options.fabric.path(batch[i].src, batch[i].dst,
                                       static_cast<std::uint64_t>(i + 1));
      flow.utility = &utility;
      engine_flows.push_back(std::move(flow));
      result.size_bytes.push_back(batch[i].size_bytes);
    }
  });

  std::vector<double> capacities = layer(
      probe, "net.fabric_build", [&] { return options.fabric.capacities(); });
  std::optional<nf::flowsim::FlowSimEngine> engine;
  layer(probe, "flowsim.compile", [&] {
    engine.emplace(std::move(engine_flows), std::move(capacities),
                   engine_options(options.resolve_interval_seconds,
                                  options.horizon_seconds,
                                  options.solver_threads, options.incremental,
                                  options.solver_tolerance));
  });
  result.sim = run_engine(*engine, probe);
  return result;
}

/// exp::run_dynamic_workload_flow with resolve_interval_seconds == 0 (exact
/// mode) and incremental re-solves.
nf::exp::DynamicWorkloadResult bench_flow_exact(
    const nf::exp::DynamicWorkloadOptions& options, Probe& probe) {
  nf::sim::Simulator sim;
  nf::net::Topology topo(sim);
  nf::exp::BuiltFabric built = layer(probe, "net.fabric_build", [&] {
    nf::exp::BuiltFabric fabric =
        nf::exp::plan_fabric(options.topology, options.jellyfish,
                             options.k_paths);
    nf::exp::materialize_fabric(fabric, topo, nf::net::drop_tail_factory());
    return fabric;
  });
  const std::vector<double> capacities = layer(
      probe, "net.fabric_build",
      [&] { return nf::exp::graph_capacities(built.graph); });

  nf::sim::Rng rng(options.seed);
  const auto arrivals = layer(probe, "workload.draw", [&] {
    return nf::workload::poisson_flows(built.mat.hosts, built.host_rate_bps,
                                       options.load, *options.sizes,
                                       options.flow_count, rng);
  });

  const nf::num::AlphaFairUtility utility(options.alpha);
  std::vector<nf::flowsim::FlowSimFlow> engine_flows;
  // The runner also assembles the fluid oracle's input; in exact mode it
  // goes unused, but building it is part of the runner's cost.
  std::vector<nf::num::FluidFlow> fluid_flows;
  layer(probe, "net.path_pick", [&] {
    engine_flows.reserve(arrivals.size());
    fluid_flows.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const auto& arrival = arrivals[i];
      const auto& paths = nf::exp::pair_paths(
          built, built.host_node.at(arrival.pair.src),
          built.host_node.at(arrival.pair.dst));
      nf::flowsim::FlowSimFlow flow;
      flow.arrival_seconds = nf::sim::to_seconds(arrival.arrival);
      flow.size_bytes = static_cast<double>(arrival.size_bytes);
      flow.links = paths[nf::net::ecmp_index(
          paths.size(), static_cast<nf::net::FlowId>(i + 1))];
      flow.utility = &utility;
      nf::num::FluidFlow fluid;
      fluid.arrival_seconds = flow.arrival_seconds;
      fluid.size_bytes = flow.size_bytes;
      fluid.links = flow.links;
      fluid.utility = &utility;
      fluid_flows.push_back(std::move(fluid));
      engine_flows.push_back(std::move(flow));
    }
  });

  std::optional<nf::flowsim::FlowSimEngine> engine;
  layer(probe, "flowsim.compile", [&] {
    engine.emplace(std::move(engine_flows), capacities,
                   engine_options(0.0, nf::sim::to_seconds(options.horizon),
                                  options.solver_threads, true, 1e-8));
  });
  nf::flowsim::FlowSimResult run = run_engine(*engine, probe);

  // Exact mode: the engine's own FCTs are the ideal (exact fluid) FCTs, and
  // both sides pay the runner's one base-RTT comparability charge.
  nf::exp::DynamicWorkloadResult result;
  result.bdp_bytes =
      built.host_rate_bps * nf::sim::to_seconds(built.base_rtt) / 8.0;
  result.sim_events = 0;
  const double latency = nf::sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (run.fct_seconds[i] < 0) {
      ++result.incomplete;
      continue;
    }
    nf::exp::DynamicWorkloadResult::PerFlow row;
    row.size_bytes = arrivals[i].size_bytes;
    row.fct_seconds = run.fct_seconds[i] + latency;
    row.rate_bps = static_cast<double>(row.size_bytes) * 8.0 / row.fct_seconds;
    row.ideal_rate_bps = static_cast<double>(row.size_bytes) * 8.0 /
                         (run.fct_seconds[i] + latency);
    result.flows.push_back(row);
  }
  probe.engine_fct_s = std::move(run.fct_seconds);
  return result;
}

/// exp::run_dynamic_workload: packet-level flows, then the fluid oracle.
nf::exp::DynamicWorkloadResult bench_packet_websearch(
    const nf::exp::DynamicWorkloadOptions& options, Probe& probe) {
  nf::sim::Simulator sim;
  nf::transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  nf::transport::Fabric fabric(sim, fabric_options);
  nf::net::Topology topo(sim);
  nf::exp::BuiltFabric built = layer(probe, "net.fabric_build", [&] {
    nf::exp::BuiltFabric plan =
        nf::exp::plan_fabric(options.topology, options.jellyfish,
                             options.k_paths);
    nf::exp::materialize_fabric(plan, topo, fabric.queue_factory());
    fabric.attach_agents(topo);
    return plan;
  });
  const nf::exp::LinkIndexer indexer = layer(
      probe, "net.fabric_build", [&] { return nf::exp::LinkIndexer(topo); });

  nf::sim::Rng rng(options.seed);
  const auto arrivals = layer(probe, "workload.draw", [&] {
    return nf::workload::poisson_flows(built.mat.hosts, built.host_rate_bps,
                                       options.load, *options.sizes,
                                       options.flow_count, rng);
  });

  const nf::num::AlphaFairUtility utility(options.alpha);
  std::vector<nf::num::FluidFlow> fluid_flows;
  fluid_flows.reserve(arrivals.size());
  std::vector<const nf::transport::Flow*> flows;
  flows.reserve(arrivals.size());
  int completed = 0;
  fabric.set_on_complete([&completed](nf::transport::Flow&) { ++completed; });

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& arrival = arrivals[i];
    nf::transport::FlowSpec spec;
    layer(probe, "net.path_pick", [&] {
      spec.src = arrival.pair.src;
      spec.dst = arrival.pair.dst;
      spec.size_bytes = arrival.size_bytes;
      spec.start_time = arrival.arrival;
      spec.utility = &utility;
      const auto& paths = nf::exp::pair_paths(
          built, built.host_node.at(arrival.pair.src),
          built.host_node.at(arrival.pair.dst));
      const auto& picked = paths[nf::net::ecmp_index(
          paths.size(), static_cast<nf::net::FlowId>(i + 1))];
      spec.path = nf::exp::to_packet_path(built, picked);

      nf::num::FluidFlow fluid;
      fluid.arrival_seconds = nf::sim::to_seconds(arrival.arrival);
      fluid.size_bytes = static_cast<double>(arrival.size_bytes);
      fluid.links = picked;
      fluid.utility = &utility;
      fluid_flows.push_back(std::move(fluid));
    });
    flows.push_back(layer(probe, "transport.add_flow",
                          [&] { return fabric.add_flow(std::move(spec)); }));
  }

  run_packets(probe, [&] {
    while (completed < static_cast<int>(arrivals.size()) &&
           sim.now() < options.horizon && sim.pending()) {
      sim.run_until(std::min(sim.now() + nf::sim::millis(5), options.horizon));
    }
  });
  probe.sim_s = nf::sim::to_seconds(sim.now());
  probe.sim_events = sim.events_executed();
  const nf::num::FluidFctResult oracle = layer(probe, "num.oracle", [&] {
    nf::num::NumSolverOptions solver_options;
    solver_options.tolerance = 1e-8;
    solver_options.policy =
        nf::num::ExecutionPolicy::parallel(options.solver_threads);
    return nf::num::fluid_fct_oracle(fluid_flows, indexer.capacities(),
                                     solver_options);
  });

  nf::exp::DynamicWorkloadResult result;
  result.bdp_bytes =
      built.host_rate_bps * nf::sim::to_seconds(built.base_rtt) / 8.0;
  result.sim_events = sim.events_executed();
  const double oracle_latency = nf::sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!flows[i]->completed()) {
      ++result.incomplete;
      continue;
    }
    nf::exp::DynamicWorkloadResult::PerFlow row;
    row.size_bytes = flows[i]->spec().size_bytes;
    row.fct_seconds = nf::sim::to_seconds(flows[i]->fct());
    row.rate_bps = static_cast<double>(row.size_bytes) * 8.0 / row.fct_seconds;
    row.ideal_rate_bps = static_cast<double>(row.size_bytes) * 8.0 /
                         (oracle.fct_seconds[i] + oracle_latency);
    result.flows.push_back(row);
  }
  return result;
}

/// exp::run_traffic_experiment for the permutation pattern in rate mode
/// (long-running flows, goodput over the measure window).
nf::exp::TrafficResult bench_packet_permutation(
    const nf::exp::TrafficOptions& options, Probe& probe) {
  nf::exp::BuiltFabric built = layer(probe, "net.fabric_build", [&] {
    return nf::exp::plan_fabric(options.topology, options.jellyfish,
                                options.k_paths);
  });
  if (options.shards != 1) {
    const std::string obstacle = nf::net::shard_partition_obstacle(built.graph);
    if (!obstacle.empty()) throw std::invalid_argument(obstacle);
  }
  nf::sim::ShardedSimulator engine(
      nf::net::resolve_shard_count(options.shards, built.tier1_switches));
  nf::sim::Simulator& sim = engine.global();
  nf::transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  nf::transport::Fabric fabric(sim, fabric_options);
  nf::net::Topology topo(sim);
  nf::exp::ShardSetup sharding;
  layer(probe, "net.fabric_build", [&] {
    nf::exp::materialize_fabric(built, topo, fabric.queue_factory(),
                                fabric.queue_factory(options.core_buffer_bytes));
    fabric.attach_agents(topo);
    nf::exp::apply_sharding(sharding, engine, topo, fabric, built);
  });

  const std::vector<nf::net::Host*>& hosts = built.mat.hosts;
  nf::sim::Rng rng(options.seed);
  const std::vector<nf::workload::HostPair> pairs = layer(
      probe, "workload.draw",
      [&] { return nf::workload::permutation_pairs(hosts, rng); });

  const nf::num::AlphaFairUtility utility(options.alpha);
  std::atomic<int> completed{0};
  fabric.set_on_complete([&completed](nf::transport::Flow&) {
    completed.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<const nf::transport::Flow*> flows;
  flows.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    nf::transport::FlowSpec spec;
    layer(probe, "net.path_pick", [&] {
      spec.src = pairs[i].src;
      spec.dst = pairs[i].dst;
      spec.size_bytes = options.flow_size_bytes;
      spec.start_time = 0;
      spec.utility = &utility;
      const auto& paths =
          nf::exp::pair_paths(built, built.host_node.at(pairs[i].src),
                              built.host_node.at(pairs[i].dst));
      spec.path = nf::exp::to_packet_path(
          built, paths[nf::net::ecmp_index(
                     paths.size(), static_cast<nf::net::FlowId>(i + 1))]);
    });
    flows.push_back(layer(probe, "transport.add_flow",
                          [&] { return fabric.add_flow(std::move(spec)); }));
  }

  nf::exp::TrafficResult result;
  result.flow_count = static_cast<int>(flows.size());
  std::vector<std::uint64_t> start_bytes(flows.size(), 0);
  sim.schedule_at(options.warmup, [&] {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      start_bytes[i] = flows[i]->receiver().total_bytes();
    }
  });
  run_packets(probe,
              [&] { engine.run_until(options.warmup + options.measure); });
  probe.sim_s = nf::sim::to_seconds(options.warmup + options.measure);
  probe.sim_events = engine.events_executed();
  probe.shard_perf = engine.shard_perf();

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double rate = nf::exp::window_rate_bps(
        start_bytes[i], flows[i]->receiver().total_bytes(), options.measure);
    result.flow_rates_bps.push_back(rate);
    result.total_goodput_bps += rate;
  }
  result.jain_index = nf::exp::jain_index(result.flow_rates_bps);
  result.optimal_bps = built.host_rate_bps * static_cast<double>(pairs.size());
  result.sim_events = engine.events_executed();
  result.shard_perf = engine.shard_perf();
  for (const auto& link : topo.links()) {
    result.queue_drops += link->queue().drops();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Correctness checks and failure accounting.
// ---------------------------------------------------------------------------

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t served = 0;  // completed, or long-running with goodput > 0
  std::int64_t failed = 0;
  std::vector<std::string> violations;  // first few, for the report

  void fail(const std::string& why) {
    ++failed;
    if (violations.size() < 8) violations.push_back(why);
  }
};

/// How far a flow-engine rate may exceed its NIC.  The NUM solver stops when
/// no price moves by its tolerance, an absolute step: at 1e-8 and prices
/// near 1e-4 per Mb/s, a flow alone on its NIC may run ~1e-4 over line rate
/// (flow-exact measured up to 8.6e-5 over 161 seeds).  1e-3 leaves ten times
/// that and still fails any flow that saves a real share of its
/// serialization time.
constexpr double kEngineRateSlack = 1e-3;

/// A flow can never finish faster than its NIC serializes it, give or take
/// a relative `slack` on its rate.
bool beats_line_rate(double size_bytes, double fct_seconds, double host_bps,
                     double slack) {
  return fct_seconds * host_bps * (1.0 + slack) < size_bytes * 8.0;
}

std::string line_rate_violation(std::size_t flow, double size_bytes,
                                double fct_seconds, double host_bps) {
  char why[160];
  std::snprintf(why, sizeof why,
                "flow %zu (%.0f B) took %.9g s, under its NIC's %.9g s", flow,
                size_bytes, fct_seconds, size_bytes * 8.0 / host_bps);
  return why;
}

Tally check_mega_batch(const nf::exp::MegaFctOptions& options,
                       const nf::exp::MegaFctResult& result) {
  Tally tally;
  const double host_bps = options.fabric.host_rate * nf::num::kRateUnitBps;
  const auto& fct = result.sim.fct_seconds;
  tally.attempted = static_cast<std::int64_t>(fct.size());
  for (std::size_t i = 0; i < fct.size(); ++i) {
    const auto size = static_cast<double>(result.size_bytes[i]);
    if (fct[i] < 0) {
      tally.fail("flow " + std::to_string(i) + " incomplete at the horizon");
    } else if (beats_line_rate(size, fct[i], host_bps, kEngineRateSlack)) {
      tally.fail(line_rate_violation(i, size, fct[i], host_bps));
    } else {
      ++tally.served;
    }
  }
  return tally;
}

/// The runner's rows add one base RTT to every engine FCT, which would let a
/// flow shorter than an RTT of bytes finish in no time and still pass, so the
/// line rate is checked on the engine's own FCTs.  The rows hold the
/// completed flows in flow order and give their sizes.
Tally check_flow_exact(const nf::exp::DynamicWorkloadOptions& options,
                       const nf::exp::DynamicWorkloadResult& result,
                       const std::vector<double>& engine_fct_s) {
  Tally tally;
  const double host_bps = options.topology.host_rate_bps;
  tally.attempted = static_cast<std::int64_t>(engine_fct_s.size());
  std::size_t row = 0;
  for (std::size_t i = 0; i < engine_fct_s.size(); ++i) {
    const double fct = engine_fct_s[i];
    if (fct < 0) {
      tally.fail("flow " + std::to_string(i) + " incomplete at the horizon");
      continue;
    }
    const auto size = static_cast<double>(result.flows.at(row++).size_bytes);
    if (beats_line_rate(size, fct, host_bps, kEngineRateSlack)) {
      tally.fail(line_rate_violation(i, size, fct, host_bps));
    } else {
      ++tally.served;
    }
  }
  return tally;
}

Tally check_packet_websearch(const nf::exp::DynamicWorkloadOptions& options,
                             const nf::exp::DynamicWorkloadResult& result) {
  Tally tally;
  tally.attempted = options.flow_count;
  for (int i = 0; i < result.incomplete; ++i) {
    tally.fail("a flow is incomplete at the horizon");
  }
  // rate_bps is size * 8 / FCT, so this is also the line-rate check.
  const double host_bps = options.topology.host_rate_bps;
  for (const auto& row : result.flows) {
    if (row.rate_bps > host_bps) {
      tally.fail("a " + std::to_string(row.size_bytes) +
                 " B flow beats its NIC line rate");
    } else {
      ++tally.served;
    }
  }
  return tally;
}

Tally check_permutation(const nf::exp::TrafficResult& result) {
  Tally tally;
  tally.attempted = result.flow_count;
  for (std::size_t i = 0; i < result.flow_rates_bps.size(); ++i) {
    if (result.flow_rates_bps[i] > 0) {
      ++tally.served;
    } else {
      tally.fail("flow " + std::to_string(i) + " has zero goodput");
    }
  }
  if (result.total_goodput_bps > result.optimal_bps * (1.0 + 1e-6)) {
    tally.fail("total goodput exceeds the permutation optimum");
  }
  return tally;
}

// ---------------------------------------------------------------------------
// Per-layer metrics and the trace file.
// ---------------------------------------------------------------------------

double span_sum(const Tracer& trace, std::string_view name) {
  double sum = 0;
  for (const Span& span : trace.spans()) {
    if (name == span.name) sum += span.end_s - span.start_s;
  }
  return sum;
}

double p_or_zero(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : nf::stats::percentile(samples, p);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every per-layer metric, for any workload (0 where a layer does no work).
std::map<std::string, double> layer_metrics(const Probe& probe,
                                            double wall_s) {
  const Tracer& trace = probe.trace;
  const nf::sim::SubstrateStats& solver = probe.solver;
  const nf::sim::SubstrateStats& packets = probe.substrate;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::map<std::string, double> m;

  const double solve_s = u(solver.solver_wall_ns) / 1e9;
  m["num.solve_s"] = solve_s;
  m["num.solve_share"] = ratio(solve_s, wall_s);
  m["num.solves"] = u(solver.solver_solves);
  m["num.solve_us_p50"] = p_or_zero(probe.solve_us, 50);
  m["num.solve_us_p90"] = p_or_zero(probe.solve_us, 90);
  m["num.sweeps_per_solve"] =
      ratio(u(solver.solver_sweeps), u(solver.solver_solves));
  m["num.relaxations_per_solve"] =
      ratio(u(solver.solver_relaxations), u(solver.solver_solves));
  m["num.workspace_allocs"] = u(solver.allocs_solver_workspace);
  m["num.oracle_s"] = span_sum(trace, "num.oracle");

  const double step_s = span_sum(trace, "flowsim.step");
  m["flowsim.compile_s"] = span_sum(trace, "flowsim.compile");
  m["flowsim.epochs"] = static_cast<double>(probe.epochs);
  m["flowsim.step_s"] = step_s;
  m["flowsim.step_us_p50"] = p_or_zero(probe.step_us, 50);
  m["flowsim.step_us_p90"] = p_or_zero(probe.step_us, 90);
  m["flowsim.self_s"] = step_s - solve_s;
  m["flowsim.self_share"] = ratio(step_s - solve_s, wall_s);
  m["flowsim.peak_active"] = static_cast<double>(probe.peak_active);

  m["workload.draw_s"] = span_sum(trace, "workload.draw");
  m["net.fabric_build_s"] = span_sum(trace, "net.fabric_build");
  m["net.path_pick_s"] = span_sum(trace, "net.path_pick");

  const double run_s = span_sum(trace, "sim.run");
  m["sim.run_s"] = run_s;
  m["sim.events"] = u(probe.sim_events);
  m["sim.events_per_s"] = ratio(u(probe.sim_events), run_s);
  m["sim.events_cancelled"] = u(packets.events_cancelled);
  m["sim.allocs"] = u(packets.allocs_total());
  m["net.packets_forwarded"] = u(packets.packets_forwarded);
  m["net.packets_dropped"] = u(packets.packets_dropped);
  m["net.ns_per_packet"] = ratio(run_s * 1e9, u(packets.packets_forwarded));
  m["transport.add_flows_s"] = span_sum(trace, "transport.add_flow");
  m["transport.control_ticks"] = u(packets.control_ticks);
  m["transport.links_swept"] = u(packets.links_swept);

  double blocked_s = 0, merged = 0, null_steps = 0, max_events = 0,
         sum_events = 0;
  for (const nf::sim::ShardPerf& shard : probe.shard_perf) {
    blocked_s += u(shard.blocked_ns) / 1e9;
    merged += u(shard.merged_msgs);
    null_steps += u(shard.null_steps);
    max_events = std::max(max_events, u(shard.events));
    sum_events += u(shard.events);
  }
  const auto shards = static_cast<double>(probe.shard_perf.size());
  m["sim.shard.blocked_s"] = blocked_s;
  m["sim.shard.blocked_share"] = ratio(blocked_s, shards * run_s);
  m["sim.shard.merged_msgs"] = merged;
  m["sim.shard.null_steps"] = null_steps;
  m["sim.shard.imbalance"] = ratio(max_events, ratio(sum_events, shards));

  // The two views add up when the root's direct children cover its time.
  double covered = 0;
  for (const Span& span : trace.spans()) {
    if (span.parent == 0) covered += span.end_s - span.start_s;
  }
  m["trace.wall_s"] = wall_s;
  m["trace.coverage"] = ratio(covered, wall_s);
  return m;
}

/// Chrome trace-event JSON: one complete ("X") event per span, with its id,
/// parent and self time (duration minus the time its children cover).
bool write_trace(const std::string& path, const Tracer& trace,
                 const std::string& workload, std::uint64_t seed) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur_us = (s.end_s - s.start_s) * 1e6;
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"self_us\": %.3f, \"workload\": \"%s\", "
                 "\"seed\": %llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_s * 1e6, dur_us, i,
                 s.parent, dur_us - child_s[i] * 1e6, workload.c_str(),
                 static_cast<unsigned long long>(seed));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Parity gate.
// ---------------------------------------------------------------------------

// Element overloads precede the vector template: its unqualified call finds
// only what is declared before it.
bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(std::uint64_t a, std::uint64_t b) { return a == b; }

bool same(const nf::exp::DynamicWorkloadResult::PerFlow& a,
          const nf::exp::DynamicWorkloadResult::PerFlow& b) {
  return a.size_bytes == b.size_bytes && same(a.fct_seconds, b.fct_seconds) &&
         same(a.rate_bps, b.rate_bps) &&
         same(a.ideal_rate_bps, b.ideal_rate_bps);
}

template <typename T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

bool same(const nf::exp::MegaFctResult& a, const nf::exp::MegaFctResult& b) {
  return a.hosts == b.hosts && a.links == b.links &&
         same(a.size_bytes, b.size_bytes) &&
         same(a.sim.fct_seconds, b.sim.fct_seconds) &&
         same(a.sim.ideal_rate, b.sim.ideal_rate) &&
         a.sim.completed == b.sim.completed &&
         a.sim.incomplete == b.sim.incomplete && a.sim.epochs == b.sim.epochs &&
         a.sim.resolves == b.sim.resolves &&
         a.sim.solver_sweeps == b.sim.solver_sweeps &&
         a.sim.solver_relaxations == b.sim.solver_relaxations &&
         a.sim.peak_active == b.sim.peak_active &&
         same(a.sim.end_seconds, b.sim.end_seconds);
}

bool same(const nf::exp::DynamicWorkloadResult& a,
          const nf::exp::DynamicWorkloadResult& b) {
  return same(a.flows, b.flows) && a.incomplete == b.incomplete &&
         same(a.bdp_bytes, b.bdp_bytes) && a.sim_events == b.sim_events;
}

/// Everything but shard_perf, which differs between shard counts by design.
bool same(const nf::exp::TrafficResult& a, const nf::exp::TrafficResult& b) {
  return a.flow_count == b.flow_count &&
         same(a.flow_rates_bps, b.flow_rates_bps) &&
         same(a.total_goodput_bps, b.total_goodput_bps) &&
         same(a.optimal_bps, b.optimal_bps) &&
         same(a.jain_index, b.jain_index) && same(a.fct_us, b.fct_us) &&
         a.completed == b.completed && a.incomplete == b.incomplete &&
         a.sim_events == b.sim_events && a.queue_drops == b.queue_drops;
}

bool same_shard_counters(const std::vector<nf::sim::ShardPerf>& a,
                         const std::vector<nf::sim::ShardPerf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].events != b[k].events || a[k].merged_msgs != b[k].merged_msgs ||
        a[k].null_steps != b[k].null_steps) {
      return false;
    }
  }
  return true;
}

int run_parity_gate(std::uint64_t seed) {
  const Sizes& sizes = kSmokeSizes;
  int failures = 0;
  const auto report = [&failures](const char* what, bool ok) {
    std::printf("parity %-44s %s\n", what, ok ? "ok" : "MISMATCH");
    if (!ok) ++failures;
  };

  {
    const auto options = mega_batch_options(sizes, seed);
    Probe probe(false, "mega-batch");
    report("mega-batch == exp::run_mega_fct",
           same(bench_mega_batch(options, probe), nf::exp::run_mega_fct(options)));
  }
  {
    const auto options = flow_exact_options(sizes, seed);
    Probe probe(false, "flow-exact");
    report("flow-exact == exp::run_dynamic_workload_flow",
           same(bench_flow_exact(options, probe),
                nf::exp::run_dynamic_workload_flow(options, 0.0, true)));
  }
  {
    const auto options = packet_websearch_options(sizes, seed);
    Probe probe(false, "packet-websearch");
    report("packet-websearch == exp::run_dynamic_workload",
           same(bench_packet_websearch(options, probe),
                nf::exp::run_dynamic_workload(options)));
  }
  {
    const auto sharded = permutation_options(sizes, seed, 2);
    Probe probe(false, "packet-permutation");
    const nf::exp::TrafficResult bench = bench_packet_permutation(sharded, probe);
    const nf::exp::TrafficResult runner = nf::exp::run_traffic_experiment(sharded);
    report("packet-permutation == exp::run_traffic_experiment",
           same(bench, runner) &&
               same_shard_counters(bench.shard_perf, runner.shard_perf));
    report("packet-permutation shards=2 == shards=1",
           same(bench, nf::exp::run_traffic_experiment(
                           permutation_options(sizes, seed, 1))));
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// One workload run.
// ---------------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"mega-batch", "flow-exact",
                                      "packet-websearch", "packet-permutation"};

/// Runs the workload, stops the clock, then checks the result.
Tally run_workload(const std::string& name, const Sizes& sizes,
                   std::uint64_t seed, Probe& probe) {
  if (name == "mega-batch") {
    const auto options = mega_batch_options(sizes, seed);
    const auto result = bench_mega_batch(options, probe);
    probe.finish();
    return check_mega_batch(options, result);
  }
  if (name == "flow-exact") {
    const auto options = flow_exact_options(sizes, seed);
    const auto result = bench_flow_exact(options, probe);
    probe.finish();
    return check_flow_exact(options, result, probe.engine_fct_s);
  }
  if (name == "packet-websearch") {
    const auto options = packet_websearch_options(sizes, seed);
    const auto result = bench_packet_websearch(options, probe);
    probe.finish();
    return check_packet_websearch(options, result);
  }
  const auto options = permutation_options(sizes, seed, 2);
  const auto result = bench_packet_permutation(options, probe);
  probe.finish();
  return check_permutation(result);
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// getrusage's ru_maxrss would not do: Linux carries the forking parent's
/// peak across exec, so a child of a 15 MB Python reports at least 15 MB.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

void print_result(const std::string& workload, std::uint64_t seed,
                  const Probe& probe, const Tally& tally) {
  const double wall_s = probe.wall_s;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"wall_s\": %.9g, "
              "\"setup_s\": %.9g, \"peak_rss_mb\": %.9g, \"sim_s\": %.9g, "
              "\"attempted\": %lld, \"served\": %lld, \"failed\": %lld, "
              "\"violations\": [",
              workload.c_str(), static_cast<unsigned long long>(seed), wall_s,
              probe.setup_s, peak_rss_mb(), probe.sim_s,
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.served),
              static_cast<long long>(tally.failed));
  for (std::size_t i = 0; i < tally.violations.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", tally.violations[i].c_str());
  }
  std::printf("]");
  if (probe.trace.on()) {
    std::printf(", \"layers\": {");
    const char* sep = "";
    for (const auto& [metric, value] : layer_metrics(probe, wall_s)) {
      std::printf("%s\"%s\": %.9g", sep, metric.c_str(), value);
      sep = ", ";
    }
    std::printf("}");
  }
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: nfbench --workload=<name> [--seed=N] [--smoke] "
               "[--trace=<file>]\n"
               "       nfbench --check [--seed=N]\n"
               "workloads: mega-batch flow-exact packet-websearch "
               "packet-permutation\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_path;
  std::uint64_t seed = 1;
  bool smoke = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg](std::string_view key) {
      return std::string(arg.substr(key.size()));
    };
    if (arg.starts_with("--workload=")) {
      workload = value("--workload=");
    } else if (arg.starts_with("--seed=")) {
      try {
        seed = std::stoull(value("--seed="));
      } catch (const std::exception&) {
        return usage();
      }
    } else if (arg.starts_with("--trace=")) {
      trace_path = value("--trace=");
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--check") {
      check = true;
    } else {
      return usage();
    }
  }
  if (!check && std::find(std::begin(kWorkloads), std::end(kWorkloads),
                          workload) == std::end(kWorkloads)) {
    return usage();
  }

  try {
    if (check) return run_parity_gate(seed);
    Probe probe(!trace_path.empty(), workload.c_str());
    const Tally tally =
        run_workload(workload, smoke ? kSmokeSizes : kFullSizes, seed, probe);
    print_result(workload, seed, probe, tally);
    if (!trace_path.empty() &&
        !write_trace(trace_path, probe.trace, workload, seed)) {
      std::fprintf(stderr, "nfbench: cannot write %s\n", trace_path.c_str());
      return 3;
    }
    return tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nfbench: %s\n", error.what());
    return 3;
  }
}
