// Sharded-engine guard: the conservative parallel engine must be
// byte-identical to the serial one.
//
// Unit half: shard-count resolution, leaf-major plan assignment, the
// passthrough facade, the missing-lookahead guard, run_until clock
// alignment, exceptions thrown by shard events, the window handoff over
// many short legs, per-shard counters that do not depend on how a run is
// cut into legs, and a global-stream event sending on a shard-owned link at
// the instant of a reserved serialization finish.
//
// Golden half: runs fig4a (`convergence`), one incast sweep, one
// oversub-fabric sweep, a small 8-leaf permutation and a slow-link
// permutation (reserved serialization finishes outlive their window)
// serial (--shards=1) and sharded (--shards=2/4/8) and asserts the outputs
// are byte-identical after stripping the rows that legitimately differ:
// per-shard perf counters (shard*_ rows exist only when sharded), substrate
// allocation counters (each shard grows its own event queue and packet
// pool) and wall-clock cells.  Every behavioral byte — events fired,
// packets, bytes, FCTs, rates, queue depths — must match.
// The serial hashes themselves are guarded by golden_determinism_test.cc.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/metrics.h"
#include "app/options.h"
#include "app/run_plan.h"
#include "app/scenario.h"
#include "app/sweep.h"
#include "net/drop_tail_queue.h"
#include "net/link.h"
#include "net/node.h"
#include "net/shard_plan.h"
#include "net/topology.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace numfabric {
namespace {

using app::MetricWriter;
using app::Options;
using app::RunContext;
using app::ScenarioRegistry;
using app::SweepRequest;
using app::SweepResult;

// --- unit half -------------------------------------------------------------

TEST(ShardPlanTest, ResolveShardCountClampsToLeaves) {
  EXPECT_EQ(net::resolve_shard_count(1, 8), 1);
  EXPECT_EQ(net::resolve_shard_count(3, 8), 3);
  EXPECT_EQ(net::resolve_shard_count(100, 4), 4);
  // 0 = one shard per leaf, capped at the core count; always in [1, leaves].
  const int zero = net::resolve_shard_count(0, 8);
  EXPECT_GE(zero, 1);
  EXPECT_LE(zero, 8);
  EXPECT_EQ(net::resolve_shard_count(0, 1), 1);
}

TEST(ShardPlanTest, LeafMajorAssignmentAndLookahead) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::LeafSpineOptions options;
  options.num_leaves = 4;
  options.hosts_per_leaf = 2;
  options.num_spines = 2;
  const net::FabricGraph graph = net::make_leaf_spine(options);
  const net::MaterializedFabric fabric =
      topo.materialize(graph, net::drop_tail_factory());

  const net::ShardPlan plan = net::build_shard_plan(graph, fabric, 2);
  EXPECT_EQ(plan.shards, 2);
  EXPECT_EQ(plan.lookahead, options.effective_core_delay());

  // Leaves split into contiguous leaf-major blocks: 0,1 -> shard 0;
  // 2,3 -> shard 1.  Hosts follow their leaf; spines go round-robin.
  // Switches materialize leaves first, then spines.
  for (int leaf = 0; leaf < options.num_leaves; ++leaf) {
    const int expected = leaf * 2 / options.num_leaves;
    EXPECT_EQ(plan.shard_of(fabric.switches[static_cast<std::size_t>(leaf)]),
              expected)
        << "leaf " << leaf;
    for (int h = 0; h < options.hosts_per_leaf; ++h) {
      const std::size_t host =
          static_cast<std::size_t>(leaf * options.hosts_per_leaf + h);
      EXPECT_EQ(plan.shard_of(fabric.hosts[host]), expected)
          << "host " << host;
    }
  }
  for (int s = 0; s < options.num_spines; ++s) {
    EXPECT_EQ(plan.shard_of(fabric.switches[static_cast<std::size_t>(
                  options.num_leaves + s)]),
              s % 2)
        << "spine " << s;
  }
}

TEST(ShardedSimulatorTest, PassthroughModeMatchesPlainSimulator) {
  // shards=1 must behave exactly like using one Simulator directly: same
  // event order, same clock, no threads, no per-shard counters.
  std::vector<int> plain_order;
  sim::Simulator plain;
  plain.schedule_at(sim::micros(3), [&] { plain_order.push_back(3); });
  plain.schedule_at(sim::micros(1), [&] { plain_order.push_back(1); });
  plain.schedule_at(sim::micros(2), [&] { plain_order.push_back(2); });
  plain.run();

  std::vector<int> engine_order;
  sim::ShardedSimulator engine(1);
  EXPECT_FALSE(engine.sharded());
  engine.schedule_at(sim::micros(3), [&] { engine_order.push_back(3); });
  engine.schedule_at(sim::micros(1), [&] { engine_order.push_back(1); });
  engine.schedule_at(sim::micros(2), [&] { engine_order.push_back(2); });
  engine.run();

  EXPECT_EQ(engine_order, plain_order);
  EXPECT_EQ(engine.now(), plain.now());
  EXPECT_EQ(engine.events_executed(), 3u);
  EXPECT_TRUE(engine.shard_perf().empty());
}

TEST(ShardedSimulatorTest, RunningShardedWithoutLookaheadThrows) {
  sim::ShardedSimulator engine(2);
  engine.schedule_at(sim::micros(1), [] {});
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(ShardedSimulatorTest, RunUntilAlignsEveryClock) {
  sim::ShardedSimulator engine(2);
  engine.set_lookahead(sim::micros(2));
  int fired = 0;
  engine.shard(0).schedule_at(sim::micros(5), [&] { ++fired; });
  engine.shard(1).schedule_at(sim::micros(40), [&] { ++fired; });
  engine.run_until(sim::micros(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), sim::micros(10));
  EXPECT_EQ(engine.shard(0).now(), sim::micros(10));
  EXPECT_EQ(engine.shard(1).now(), sim::micros(10));
  // Resume: the shard-1 event is still pending and fires on the next leg.
  EXPECT_TRUE(engine.pending());
  engine.run_until(sim::micros(50));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), sim::micros(50));
}

TEST(ShardedSimulatorTest, ShardEventExceptionReachesCaller) {
  // An exception thrown by a shard event reaches run()'s caller, as it
  // would from a serial Simulator, whether the event ran on the coordinator
  // (shard 0) or on a worker (shard 1).  Later events never run, the
  // engine refuses to run again, and it still shuts down cleanly.
  for (const int thrower : {0, 1}) {
    int later = 0;
    {
      sim::ShardedSimulator engine(2);
      engine.set_lookahead(sim::micros(2));
      engine.shard(thrower).schedule_at(
          sim::micros(5), [] { throw std::runtime_error("boom"); });
      engine.shard(1 - thrower).schedule_at(sim::micros(50),
                                            [&later] { ++later; });
      EXPECT_THROW(engine.run(), std::runtime_error) << "thrower " << thrower;
      EXPECT_THROW(engine.run(), std::logic_error) << "thrower " << thrower;
    }
    EXPECT_EQ(later, 0) << "thrower " << thrower;
  }

  // Both shards throw inside one window: the caller sees the exception a
  // serial run would have thrown first.  `direct` events are pushed during
  // setup, shard 1 first, so at equal times shard 1's comes first.
  // Otherwise each throwing event is pushed by an event of its own shard
  // (shard 0's pusher runs first), so the tie resolves through ranks
  // assigned in the window's merge.
  const auto first_error = [](sim::TimeNs at0, sim::TimeNs at1,
                              bool direct) -> std::string {
    sim::ShardedSimulator engine(2);
    engine.set_lookahead(sim::micros(100));
    const auto arm = [&engine, direct](int k, sim::TimeNs at) {
      const auto boom = [k] {
        throw std::runtime_error("shard " + std::to_string(k));
      };
      sim::Simulator& shard = engine.shard(k);
      if (direct) {
        shard.schedule_at(at, boom);
      } else {
        shard.schedule_at(sim::micros(1 + k),
                          [&shard, at, boom] { shard.schedule_at(at, boom); });
      }
    };
    arm(1, at1);
    arm(0, at0);
    try {
      engine.run();
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "no exception";
  };
  EXPECT_EQ(first_error(sim::micros(6), sim::micros(5), true), "shard 1");
  EXPECT_EQ(first_error(sim::micros(5), sim::micros(6), true), "shard 0");
  EXPECT_EQ(first_error(sim::micros(5), sim::micros(5), true), "shard 1");
  EXPECT_EQ(first_error(sim::micros(5), sim::micros(5), false), "shard 0");
}

TEST(ShardedSimulatorTest, ManyShortLegsAlignClocksAndShutDownParked) {
  // Hundreds of one-lookahead run_until legs, each a handful of window
  // handoffs, with a ticker on every shard firing twice per lookahead.
  // Every leg must leave every clock on its end.  Afterwards the workers
  // sit parked for a while; destruction must still wake them.
  constexpr int kShards = 3;
  constexpr int kLegs = 200;
  const sim::TimeNs lookahead = sim::micros(1);
  std::vector<int> fired(kShards, 0);
  {
    sim::ShardedSimulator engine(kShards);
    engine.set_lookahead(lookahead);
    std::function<void(int)> tick = [&](int k) {
      ++fired[static_cast<std::size_t>(k)];
      engine.shard(k).schedule_in(lookahead / 2, [&tick, k] { tick(k); });
    };
    for (int k = 0; k < kShards; ++k) {
      engine.shard(k).schedule_at(0, [&tick, k] { tick(k); });
    }
    for (int leg = 1; leg <= kLegs; ++leg) {
      const sim::TimeNs end = leg * lookahead;
      engine.run_until(end);
      ASSERT_EQ(engine.now(), end) << "leg " << leg;
      for (int k = 0; k < kShards; ++k) {
        ASSERT_EQ(engine.shard(k).now(), end)
            << "leg " << leg << " shard " << k;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (int k = 0; k < kShards; ++k) {
    // Ticks at 0, 0.5, ..., kLegs lookaheads inclusive.
    EXPECT_EQ(fired[static_cast<std::size_t>(k)], 2 * kLegs + 1)
        << "shard " << k;
  }
}

// Host a sends a 1500 B packet every microsecond to host b over a 10 Gb/s
// link with 5 us of propagation (the lookahead), a on shard 0 and b on
// shard 1: every transmit start posts a cross-shard message, one every
// 1.2 us, so a full window posts several.
struct CrossShardPair {
  sim::ShardedSimulator engine{2};
  net::Topology topo{engine.global()};
  net::ShardRouter router{engine};
  net::Link* ab = nullptr;
  int received = 0;
  std::function<void()> tick;

  CrossShardPair() {
    engine.set_lookahead(sim::micros(5));
    net::Host* a = topo.add_host("a");
    net::Host* b = topo.add_host("b");
    ab = topo.connect(a, b, 10e9, sim::micros(5), net::drop_tail_factory())
             .first;
    net::ShardPlan plan;
    plan.shards = 2;
    plan.lookahead = sim::micros(5);
    plan.node_shard = {{a, 0}, {b, 1}};
    net::apply_shard_plan(topo, plan, engine, router);
    b->register_flow(1, [this](net::Packet&&) { ++received; });
    tick = [this] {
      net::Packet p;
      p.type = net::PacketType::kData;
      p.size = 1500;
      p.flow = 1;
      ab->send(std::move(p));
      engine.shard(0).schedule_in(sim::micros(1), [this] { tick(); });
    };
    engine.shard(0).schedule_at(0, [this] { tick(); });
  }
};

TEST(ShardedSimulatorTest, PerShardCountersDoNotDependOnRunLegs) {
  // One run_until(end) and many short legs to the same end execute the same
  // events; every cross-shard message posted by them has been merged into
  // shard 1's queue when each run returns, legs or not, and the per-shard
  // counters must say so.  The messages merged as a run returns once went
  // uncounted: the single leg's last window (45 us to the end, which is no
  // window boundary) posts four, a 0.3 us leg at most one.
  const sim::TimeNs end = sim::micros(49) + 500;
  CrossShardPair whole;
  whole.engine.run_until(end);
  CrossShardPair legs;
  for (sim::TimeNs t = 300; t < end; t += 300) legs.engine.run_until(t);
  legs.engine.run_until(end);

  for (int k = 0; k < 2; ++k) {
    const auto idx = static_cast<std::size_t>(k);
    EXPECT_EQ(whole.engine.shard_perf()[idx].events,
              legs.engine.shard_perf()[idx].events)
        << "shard " << k;
    EXPECT_EQ(whole.engine.shard_perf()[idx].merged_msgs,
              legs.engine.shard_perf()[idx].merged_msgs)
        << "shard " << k;
  }
  // One message per transmit start: back to back from t = 0, every 1.2 us,
  // the last at 49.2 us.
  EXPECT_EQ(whole.engine.shard_perf()[1].merged_msgs, 42u);
  EXPECT_EQ(whole.received, legs.received);
}

// Sink recording which flow arrives, in order.
class FlowSink : public net::Host {
 public:
  explicit FlowSink(sim::Simulator& sim) : Host(0, "sink"), sim_(sim) {}
  void receive(net::Packet&& packet) override {
    flows.push_back(packet.flow);
    times.push_back(sim_.now());
  }
  std::vector<net::FlowId> flows;
  std::vector<sim::TimeNs> times;

 private:
  sim::Simulator& sim_;
};

// A shard event E0 sends A (flow 1) on l1 at t = 0, reserving its finish F
// at 1.2 us.  A global-stream event G at exactly 1.2 us sends B (flow 2) on
// l1, then C (flow 3) on the idle l2.  G keyed below F (pushed during setup,
// rank 0): B waits for F, which G pushes, so C's delivery is pushed first.
// G keyed above F (pushed by a global event at 0.1 us, which ranks after
// E0): B starts at once.  `link_sim` owns the links and sink; `stream` runs
// G.  In a serial run both are the same simulator.
std::vector<net::FlowId> global_send_at_finish(sim::Simulator& link_sim,
                                               sim::Simulator& stream,
                                               const std::function<void()>& run,
                                               bool g_below_finish) {
  FlowSink sink(link_sim);
  net::Link l1(link_sim, "l1", 10e9, sim::micros(1),
               std::make_unique<net::DropTailQueue>(1'000'000), &sink);
  net::Link l2(link_sim, "l2", 10e9, sim::micros(1),
               std::make_unique<net::DropTailQueue>(1'000'000), &sink);
  const auto packet = [](net::FlowId flow) {
    net::Packet p;
    p.type = net::PacketType::kData;
    p.size = 1500;
    p.flow = flow;
    return p;
  };
  const auto g = [&] {
    l1.send(packet(2));
    l2.send(packet(3));
  };
  link_sim.schedule_at(0, [&] { l1.send(packet(1)); });
  if (g_below_finish) {
    stream.schedule_at(1200, g);
  } else {
    stream.schedule_at(100, [&] { stream.schedule_at(1200, g); });
  }
  run();
  EXPECT_EQ(sink.times, (std::vector<sim::TimeNs>{2200, 3400, 3400}));
  return sink.flows;
}

TEST(ShardedSimulatorTest, GlobalEventSendsAtReservedFinishInstant) {
  for (const bool below : {true, false}) {
    sim::Simulator serial;
    const auto serial_order = global_send_at_finish(
        serial, serial, [&serial] { serial.run(); }, below);
    EXPECT_EQ(serial_order, below ? (std::vector<net::FlowId>{1, 3, 2})
                                  : (std::vector<net::FlowId>{1, 2, 3}));

    sim::ShardedSimulator engine(2);
    engine.set_lookahead(sim::micros(1));
    const auto sharded_order = global_send_at_finish(
        engine.shard(0), engine.global(), [&engine] { engine.run(); }, below);
    EXPECT_EQ(sharded_order, serial_order) << "G below F: " << below;
  }
}

// --- golden half -----------------------------------------------------------

// Strips the bytes that legitimately differ between serial and sharded runs:
//  * sweep_runs wall_ms cells (nondeterministic wall time);
//  * perf rows named shard*_ (only emitted when sharded) and allocs_*
//    (per-shard containers grow independently of the serial ones);
//  * events_per_sec / wall_ms / solver_wall_us scalars (wall clock).
// Everything else — all behavioral counters and result tables — is kept.
std::string normalize(const MetricWriter& metrics) {
  std::ostringstream raw;
  metrics.write_csv(raw);
  std::istringstream in(raw.str());
  std::ostringstream cleaned;
  std::string line;
  bool in_sweep_runs = false;
  bool in_perf = false;
  // The perf section is buffered so it can be dropped wholesale when every
  // data row was filtered out (a serial ctx run emits no perf table at all;
  // a sharded one would otherwise leave an empty header behind).
  std::vector<std::string> perf_block;
  bool perf_has_rows = false;
  const auto flush_perf = [&] {
    if (perf_has_rows) {
      for (const std::string& kept : perf_block) cleaned << kept << "\n";
    }
    perf_block.clear();
    perf_has_rows = false;
  };
  while (std::getline(in, line)) {
    if (line.rfind("# table,", 0) == 0) {
      flush_perf();
      in_sweep_runs = line == "# table,sweep_runs";
      in_perf = line == "# table,perf";
      if (in_perf) {
        perf_block.push_back(line);
        continue;
      }
    } else if (line.rfind("# scalar,", 0) == 0) {
      const bool wall_scalar =
          line.rfind("# scalar,wall_ms,", 0) == 0 ||
          line.rfind("# scalar,events_per_sec,", 0) == 0 ||
          line.rfind("# scalar,solver_wall_us,", 0) == 0;
      if (wall_scalar) continue;
    } else if (in_sweep_runs && line.find("wall_ms") == std::string::npos) {
      line = line.substr(0, line.rfind(',') + 1) + "<wall>";
    } else if (in_perf) {
      if (perf_block.size() == 1) {
        perf_block.push_back(line);  // column header row
        continue;
      }
      // The perf table's leading columns may be swept keys; match the
      // counter name anywhere in the row.
      if (line.find("shard") != std::string::npos ||
          line.find("allocs_") != std::string::npos ||
          line.find("solver_wall_us") != std::string::npos) {
        continue;
      }
      perf_block.push_back(line);
      perf_has_rows = true;
      continue;
    }
    cleaned << line << "\n";
  }
  flush_perf();
  return cleaned.str();
}

std::string run_convergence(int shards) {
  app::register_builtin_scenarios();
  const app::Scenario* scenario =
      ScenarioRegistry::global().find("convergence");
  EXPECT_NE(scenario, nullptr);
  Options options;
  MetricWriter metrics;
  RunContext ctx{options,
                 transport::Scheme::kNumFabric,
                 metrics,
                 false,
                 /*solver_threads=*/1,
                 shards};
  scenario->run(ctx);
  return normalize(metrics);
}

TEST(ShardedGoldenTest, ConvergenceIsShardCountInvariant) {
  const std::string serial = run_convergence(1);
  const std::string sharded = run_convergence(4);
  EXPECT_EQ(serial, sharded)
      << "fig4a output differs between --shards=1 and --shards=4";
}

std::string run_incast_sweep(int shards) {
  app::register_builtin_scenarios();
  const app::Scenario* scenario = ScenarioRegistry::global().find("incast");
  EXPECT_NE(scenario, nullptr);
  SweepRequest request;
  request.scenario = scenario;
  Options options;
  options.set("hosts_per_leaf", "2");
  options.set("leaves", "2");
  options.set("spines", "1");
  options.set("fanin", "3");
  options.set("flow_kb", "32");
  request.base_options = options;
  request.plan = app::RunPlan::expand({app::parse_sweep_spec("seed=1,2")});
  request.jobs = 1;
  request.shards = shards;
  MetricWriter merged;
  const SweepResult result = run_sweep(request, merged);
  EXPECT_EQ(result.failed, 0) << "golden sweep runs must succeed";
  return normalize(merged);
}

TEST(ShardedGoldenTest, IncastSweepIsShardCountInvariant) {
  const std::string serial = run_incast_sweep(1);
  const std::string sharded = run_incast_sweep(2);  // 2 leaves cap shards
  EXPECT_EQ(serial, sharded)
      << "incast sweep output differs between --shards=1 and --shards=2";
}

std::string run_oversub_sweep(int shards) {
  app::register_builtin_scenarios();
  const app::Scenario* scenario =
      ScenarioRegistry::global().find("oversub-fabric");
  EXPECT_NE(scenario, nullptr);
  SweepRequest request;
  request.scenario = scenario;
  Options options;
  options.set("topology", "2x2x2");
  options.set("shuffle_kb", "20");
  options.set("warmup_ms", "1");
  options.set("measure_ms", "2");
  options.set("horizon_ms", "100");
  request.base_options = options;
  request.plan = app::RunPlan::expand({app::parse_sweep_spec("oversub=1,4")});
  request.jobs = 1;
  request.shards = shards;
  MetricWriter merged;
  const SweepResult result = run_sweep(request, merged);
  EXPECT_EQ(result.failed, 0) << "golden sweep runs must succeed";
  return normalize(merged);
}

TEST(ShardedGoldenTest, OversubSweepIsShardCountInvariant) {
  const std::string serial = run_oversub_sweep(1);
  const std::string sharded = run_oversub_sweep(2);
  EXPECT_EQ(serial, sharded)
      << "oversub-fabric sweep output differs between --shards=1 and "
         "--shards=2";
}

std::string run_wide_permutation(int shards) {
  app::register_builtin_scenarios();
  const app::Scenario* scenario =
      ScenarioRegistry::global().find("permutation");
  EXPECT_NE(scenario, nullptr);
  Options options;
  options.set("topology", "2x8x2");
  options.set("warmup_ms", "1");
  options.set("measure_ms", "1");
  MetricWriter metrics;
  RunContext ctx{options, transport::Scheme::kNumFabric, metrics, false,
                 /*solver_threads=*/1, shards};
  scenario->run(ctx);
  return normalize(metrics);
}

TEST(ShardedGoldenTest, PermutationWithMoreShardsThanCoresMatchesSerial) {
  // Eight shards are eight engine threads: more than a 4-core host or a CI
  // runner has, so threads wait for cores as well as for each other.
  const std::string serial = run_wide_permutation(1);
  const std::string sharded = run_wide_permutation(8);
  EXPECT_EQ(serial, sharded)
      << "permutation output differs between --shards=1 and --shards=8";
}

std::string run_slow_link_permutation(int shards) {
  app::register_builtin_scenarios();
  const app::Scenario* scenario =
      ScenarioRegistry::global().find("permutation");
  EXPECT_NE(scenario, nullptr);
  Options options;
  options.set("topology", "4x4x2");
  options.set("host_gbps", "1");
  options.set("spine_gbps", "2");
  options.set("core_delay_us", "0.5");
  options.set("measure_ms", "1");
  MetricWriter metrics;
  RunContext ctx{options, transport::Scheme::kNumFabric, metrics, false,
                 /*solver_threads=*/1, shards};
  scenario->run(ctx);
  return normalize(metrics);
}

TEST(ShardedGoldenTest, SlowLinkPermutationWithReservationsAcrossWindows) {
  // A 1500 B packet serializes in 12 us on a 1 Gb/s host link against a
  // 0.5 us lookahead: a finish reserved in one window is pushed, if at all,
  // many windows later, after its rank has been rewritten.
  const std::string serial = run_slow_link_permutation(1);
  for (const int shards : {2, 4}) {
    EXPECT_EQ(serial, run_slow_link_permutation(shards))
        << "slow-link permutation differs between --shards=1 and --shards="
        << shards;
  }
}

}  // namespace
}  // namespace numfabric
