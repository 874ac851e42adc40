// Golden determinism guard for the simulation substrate.
//
// Runs fig4a (the `convergence` scenario) and one incast point at fixed
// seeds and asserts (a) the merged sweep CSV is byte-identical whether run
// on 1 worker or 4, and (b) both outputs hash to checked-in golden values.
// The hashes cover scenario tables AND the substrate `perf` counters, so any
// change to event ordering, packet forwarding, queue scheduling or counter
// accounting — the things the allocation-free substrate refactor must
// preserve — trips this test.
//
// If a change intentionally alters simulation behavior, rerun the test: the
// failure message prints the new hash to paste into the constants below.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/metrics.h"
#include "app/options.h"
#include "app/perf.h"
#include "app/run_plan.h"
#include "app/scenario.h"
#include "app/sweep.h"

namespace numfabric::app {
namespace {

// Checked-in golden hashes (FNV-1a 64 of the normalized CSV).
//
// All three were re-baselined by the flow-fluid engine PR: the perf table
// gained flowsim_epochs / flowsim_resolves rows (zero for these packet-level
// runs).  Every other byte of the normalized CSVs was verified identical to
// the previous baseline — packet physics is untouched; only the counter
// schema grew.
//
// Every packet-level golden here and in FixedPointsMatchGoldens was
// re-baselined again when net::Link stopped pushing serialization-finish
// events that no packet waits for: only event counts moved (the perf rows
// events_scheduled, events_fired, allocs_event_queue and allocs_total, and
// sim_events), every other byte was verified identical.
constexpr const char* kConvergenceGolden = "6eebb2ff85b0ef0";
constexpr const char* kIncastSweepGolden = "bff05290a220d811";
constexpr const char* kOversubSweepGolden = "bdf84acbacbd36f2";
// fidelity=flow websearch sweep (see FlowFidelitySweepIsJobCountInvariant).
constexpr const char* kFlowSweepGolden = "4719adfa9f05a47";

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  std::ostringstream out;
  out << std::hex << hash;
  return out.str();
}

// Blanks the wall_ms column of sweep_runs rows — the only nondeterministic
// bytes in merged sweep output.
std::string normalize(const MetricWriter& metrics) {
  std::ostringstream raw;
  metrics.write_csv(raw);
  std::istringstream in(raw.str());
  std::ostringstream cleaned;
  std::string line;
  bool in_sweep_runs = false;
  while (std::getline(in, line)) {
    if (line.rfind("# table,", 0) == 0) {
      in_sweep_runs = line == "# table,sweep_runs";
    } else if (in_sweep_runs && line.find("wall_ms") == std::string::npos) {
      line = line.substr(0, line.rfind(',') + 1) + "<wall>";
    }
    cleaned << line << "\n";
  }
  return cleaned.str();
}

TEST(GoldenDeterminismTest, Fig4aConvergenceMatchesGoldenHash) {
  register_builtin_scenarios();
  const Scenario* scenario = ScenarioRegistry::global().find("convergence");
  ASSERT_NE(scenario, nullptr);
  Options options;  // declared defaults, fixed seed
  MetricWriter metrics;
  RunContext ctx{options, transport::Scheme::kNumFabric, metrics, false};
  const PerfSnapshot snapshot;
  scenario->run(ctx);
  record_perf(metrics, snapshot.delta());
  const std::string csv = normalize(metrics);
  EXPECT_EQ(fnv1a_hex(csv), kConvergenceGolden)
      << "fig4a output changed. If intentional, update kConvergenceGolden.\n"
      << "--- normalized CSV (first 2000 chars) ---\n"
      << csv.substr(0, 2000);
}

// The same run with --solver-threads=4: the parallel NUM oracle (wave
// schedule) must hash to the SAME golden as the serial reference — thread
// count changes wall time, never bytes.
TEST(GoldenDeterminismTest, Fig4aWithFourSolverThreadsMatchesSameGolden) {
  register_builtin_scenarios();
  const Scenario* scenario = ScenarioRegistry::global().find("convergence");
  ASSERT_NE(scenario, nullptr);
  Options options;
  MetricWriter metrics;
  RunContext ctx{options, transport::Scheme::kNumFabric, metrics, false,
                 /*solver_threads=*/4};
  const PerfSnapshot snapshot;
  scenario->run(ctx);
  record_perf(metrics, snapshot.delta());
  const std::string csv = normalize(metrics);
  EXPECT_EQ(fnv1a_hex(csv), kConvergenceGolden)
      << "solver_threads=4 output differs from the serial golden — the "
         "parallel solver is not bit-identical.\n"
      << "--- normalized CSV (first 2000 chars) ---\n"
      << csv.substr(0, 2000);
}

TEST(GoldenDeterminismTest, IncastSweepIsJobCountInvariantAndMatchesGolden) {
  register_builtin_scenarios();
  const Scenario* scenario = ScenarioRegistry::global().find("incast");
  ASSERT_NE(scenario, nullptr);

  const auto run_with_jobs = [scenario](int jobs) {
    SweepRequest request;
    request.scenario = scenario;
    Options options;
    options.set("hosts_per_leaf", "2");
    options.set("leaves", "2");
    options.set("spines", "1");
    options.set("fanin", "3");
    options.set("flow_kb", "32");
    request.base_options = options;
    request.plan = RunPlan::expand({parse_sweep_spec("seed=1,2")});
    request.jobs = jobs;
    MetricWriter merged;
    const SweepResult result = run_sweep(request, merged);
    EXPECT_EQ(result.failed, 0) << "golden sweep runs must succeed";
    return normalize(merged);
  };

  const std::string serial = run_with_jobs(1);
  const std::string parallel = run_with_jobs(4);
  EXPECT_EQ(serial, parallel)
      << "merged sweep output depends on the worker count";
  EXPECT_EQ(fnv1a_hex(serial), kIncastSweepGolden)
      << "incast sweep output changed. If intentional, update "
         "kIncastSweepGolden.\n--- normalized CSV (first 2000 chars) ---\n"
      << serial.substr(0, 2000);
}

// One oversubscription sweep point of the contended-fabric family: guards
// the parameterized builder (oversub re-rating, core-link bookkeeping), the
// new experiment's measurement windows and price sampling, and the sweep
// engine's jobs-invariance on the new table shapes.
TEST(GoldenDeterminismTest, OversubSweepIsJobCountInvariantAndMatchesGolden) {
  register_builtin_scenarios();
  const Scenario* scenario = ScenarioRegistry::global().find("oversub-fabric");
  ASSERT_NE(scenario, nullptr);

  const auto run_with_jobs = [scenario](int jobs) {
    SweepRequest request;
    request.scenario = scenario;
    Options options;
    options.set("topology", "2x2x2");
    options.set("shuffle_kb", "20");
    options.set("warmup_ms", "1");
    options.set("measure_ms", "2");
    options.set("horizon_ms", "100");
    request.base_options = options;
    request.plan = RunPlan::expand({parse_sweep_spec("oversub=1,4")});
    request.jobs = jobs;
    MetricWriter merged;
    const SweepResult result = run_sweep(request, merged);
    EXPECT_EQ(result.failed, 0) << "golden sweep runs must succeed";
    return normalize(merged);
  };

  const std::string serial = run_with_jobs(1);
  const std::string parallel = run_with_jobs(4);
  EXPECT_EQ(serial, parallel)
      << "merged sweep output depends on the worker count";
  EXPECT_EQ(fnv1a_hex(serial), kOversubSweepGolden)
      << "oversub-fabric sweep output changed. If intentional, update "
         "kOversubSweepGolden.\n--- normalized CSV (first 2000 chars) ---\n"
      << serial.substr(0, 2000);
}

// A fidelity=flow sweep must be as deterministic as the packet-level ones:
// the merged CSV is byte-identical across sweep worker counts AND solver
// thread counts (the flow engine re-solves through the wave-deterministic
// parallel NUM solver), and hashes to a checked-in golden.
TEST(GoldenDeterminismTest, FlowFidelitySweepIsJobCountInvariant) {
  register_builtin_scenarios();
  const Scenario* scenario = ScenarioRegistry::global().find("websearch-fct");
  ASSERT_NE(scenario, nullptr);

  const auto run_with = [scenario](int jobs, int solver_threads) {
    SweepRequest request;
    request.scenario = scenario;
    Options options;
    options.set("hosts_per_leaf", "2");
    options.set("leaves", "2");
    options.set("spines", "1");
    options.set("flows", "60");
    options.set("horizon_ms", "300");
    options.set("fidelity", "flow");
    options.set("resolve_us", "50");
    // Golden-hashed: tier-1 active-row compaction must be bitwise invisible,
    // which only holds with the incremental (tier-2) path off.
    options.set("incremental", "off");
    request.base_options = options;
    request.plan = RunPlan::expand({parse_sweep_spec("loads=0.3,0.5")});
    request.jobs = jobs;
    request.solver_threads = solver_threads;
    MetricWriter merged;
    const SweepResult result = run_sweep(request, merged);
    EXPECT_EQ(result.failed, 0) << "golden sweep runs must succeed";
    return normalize(merged);
  };

  const std::string serial = run_with(1, 1);
  EXPECT_EQ(serial, run_with(4, 1))
      << "merged flow-fidelity sweep output depends on the worker count";
  EXPECT_EQ(serial, run_with(1, 4))
      << "flow-fidelity output depends on the solver thread count";
  EXPECT_EQ(fnv1a_hex(serial), kFlowSweepGolden)
      << "flow-fidelity sweep output changed. If intentional, update "
         "kFlowSweepGolden.\n--- normalized CSV (first 2000 chars) ---\n"
      << serial.substr(0, 2000);
}

// Small fixed points no sweep golden above covers, one run each on a 2x2x1
// fabric with incremental=off, so every byte is exact:
//  * the dual-fidelity twin paths: packet websearch-fct (packet runner +
//    fluid oracle), trace replay at both fidelities, and the flow-fidelity
//    traffic runner in FCT (shuffle) and rate (permutation) mode;
//  * the DGD and RCP* control laws at packet level, on incast (FCT mode)
//    and permutation (rate mode) — the only goldens that run those schemes;
//  * the packet-only leaf-spine runners no sweep golden reaches: the Fig. 7
//    FCT comparison, Fig. 8 resource pooling (which reads hosts_per_leaf /
//    leaves / spines, not topology=), background-burst, and rate-timeseries
//    under DCTCP (the max-min target branch; the scheme comes from the run
//    context);
//  * routes with more than one path per host pair, which a 2x2x1 fabric
//    never has: websearch-fct on a jellyfish at both fidelities, mega-fct on
//    a jellyfish (k = 4), and the flow-fidelity permutation on two spines.
TEST(GoldenDeterminismTest, FixedPointsMatchGoldens) {
  struct FixedPoint {
    const char* scenario;
    std::vector<std::pair<std::string, std::string>> options;
    const char* golden;
    transport::Scheme scheme = transport::Scheme::kNumFabric;
  };
  const FixedPoint cases[] = {
      {"websearch-fct",
       {{"fidelity", "packet"}, {"flows", "40"}, {"loads", "0.5"},
        {"horizon_ms", "300"}},
       "3ad114f4633fc5c4"},
      {"trace-replay",
       {{"fidelity", "packet"}, {"horizon_ms", "500"}},
       "18e09c68045affa5"},
      {"trace-replay",
       {{"fidelity", "flow"}, {"horizon_ms", "500"}},
       "60b12899ddf5dcc0"},
      {"shuffle", {{"fidelity", "flow"}}, "91188e1a60cc4a9"},
      {"permutation", {{"fidelity", "flow"}}, "f9493a6a94f8efd3"},
      {"incast",
       {{"transport", "dgd"}, {"fanin", "3"}, {"flow_kb", "32"}},
       "dba35419a84ac452"},
      {"incast",
       {{"transport", "rcp"}, {"fanin", "3"}, {"flow_kb", "32"}},
       "9cedeb2a694835c4"},
      {"permutation",
       {{"transport", "dgd"}, {"flow_kb", "0"}},
       "fb0da0ea79e9cb4f"},
      {"permutation",
       {{"transport", "rcp"}, {"flow_kb", "0"}},
       "c2b0b4a7130357f7"},
      {"fct-vs-pfabric",
       {{"loads", "0.5"}, {"flows", "40"}},
       "558e751e533b0222"},
      {"resource-pooling",
       {{"hosts_per_leaf", "2"}, {"leaves", "2"}, {"spines", "2"},
        {"subflows", "1,2"}, {"warmup_ms", "1"}, {"measure_ms", "2"}},
       "d149e58172db60ea"},
      {"background-burst",
       {{"fanin", "2"}, {"bursts", "2"}},
       "bb7ac223c25a81d0"},
      {"rate-timeseries",
       {{"paths", "12"}, {"initial_active", "6"}, {"flows_per_event", "2"},
        {"min_active", "4"}, {"max_active", "8"}, {"events", "2"}},
       "288ece2f27d99b61",
       transport::Scheme::kDctcp},
      {"websearch-fct",
       {{"topology", "jellyfish:6,3,8"}, {"fidelity", "packet"},
        {"flows", "40"}, {"loads", "0.5"}, {"horizon_ms", "300"}},
       "93cdfe6813a8e65b"},
      {"websearch-fct",
       {{"topology", "jellyfish:6,3,8"}, {"fidelity", "flow"},
        {"flows", "40"}, {"loads", "0.5"}, {"horizon_ms", "300"}},
       "b06447f8d3afc7d8"},
      {"mega-fct",
       {{"topology", "jellyfish:6,3,8"}, {"concurrent", "500"},
        {"resolve_us", "500"}, {"horizon_s", "10"}, {"k_paths", "4"}},
       "860e1d4df650711"},
      {"permutation",
       {{"topology", "4x4x2"}, {"fidelity", "flow"}},
       "af3d4fd96548b35c"},
  };
  register_builtin_scenarios();
  for (const FixedPoint& point : cases) {
    const Scenario* scenario = ScenarioRegistry::global().find(point.scenario);
    ASSERT_NE(scenario, nullptr) << point.scenario;
    Options options;
    options.set("topology", "2x2x1");
    options.set("incremental", "off");
    for (const auto& [key, value] : point.options) options.set(key, value);
    MetricWriter metrics;
    RunContext ctx{options, point.scheme, metrics, false};
    const PerfSnapshot snapshot;
    scenario->run(ctx);
    record_perf(metrics, snapshot.delta());
    const std::string csv = normalize(metrics);
    EXPECT_EQ(fnv1a_hex(csv), point.golden)
        << point.scenario << " fidelity=" << options.get("fidelity", "")
        << " transport=" << options.get("transport", "")
        << " scheme=" << transport::scheme_name(point.scheme)
        << " output changed. If intentional, update its golden.\n"
        << "--- normalized CSV (first 2000 chars) ---\n"
        << csv.substr(0, 2000);
  }
}

}  // namespace
}  // namespace numfabric::app
