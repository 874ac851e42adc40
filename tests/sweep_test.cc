// Tests for the sweep subsystem: spec parsing (list + range), RunPlan
// cross-product expansion, the worker pool, merged-table layout, and the
// thread-count independence of merged output.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/driver.h"
#include "app/metrics.h"
#include "app/run_plan.h"
#include "app/sweep.h"
#include "util/worker_pool.h"

namespace numfabric::app {
namespace {

// --- sweep spec parsing ----------------------------------------------------

TEST(SweepSpecTest, ParsesCommaList) {
  const SweepSpec spec = parse_sweep_spec("load=0.2, 0.4,0.8");
  EXPECT_EQ(spec.key, "load");
  EXPECT_EQ(spec.values, (std::vector<std::string>{"0.2", "0.4", "0.8"}));
}

TEST(SweepSpecTest, ParsesTextValues) {
  const SweepSpec spec = parse_sweep_spec("workload=websearch,datamining");
  EXPECT_EQ(spec.values,
            (std::vector<std::string>{"websearch", "datamining"}));
}

TEST(SweepSpecTest, ExpandsInclusiveRange) {
  const SweepSpec spec = parse_sweep_spec("load=0.2:0.8:0.2");
  EXPECT_EQ(spec.values,
            (std::vector<std::string>{"0.2", "0.4", "0.6", "0.8"}));
  // Integer ranges print as integers.
  EXPECT_EQ(parse_sweep_spec("n=1:5:2").values,
            (std::vector<std::string>{"1", "3", "5"}));
  // Endpoint not on the grid: stop at the last point <= hi.
  EXPECT_EQ(parse_sweep_spec("n=1:6:2").values,
            (std::vector<std::string>{"1", "3", "5"}));
  // Degenerate single-point range.
  EXPECT_EQ(parse_sweep_spec("n=3:3:1").values,
            (std::vector<std::string>{"3"}));
}

TEST(SweepSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_sweep_spec("noequals"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec("=0.2"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec("k="), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec("k=,,"), std::invalid_argument);
  // lo:hi without a step, zero/negative steps, empty ranges.
  EXPECT_THROW(parse_sweep_spec("k=1:2"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec("k=1:2:0"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec("k=1:2:-1"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec("k=2:1:1"), std::invalid_argument);
}

TEST(SweepSpecTest, TaggedValuesKeepTheirCommasAndColons) {
  // Only an all-numeric ':' value is a range; a text-bearing one is a list
  // item, and numeric items after it extend it (`jellyfish:S,r,H` sweeps as
  // one token next to plain shapes).
  EXPECT_EQ(parse_sweep_spec("topology=jellyfish:8,3,16").values,
            (std::vector<std::string>{"jellyfish:8,3,16"}));
  EXPECT_EQ(
      parse_sweep_spec("topology=4x2x2, jellyfish:8,3,16, 16x8x4").values,
      (std::vector<std::string>{"4x2x2", "jellyfish:8,3,16", "16x8x4"}));
  EXPECT_EQ(
      parse_sweep_spec("topology=jellyfish:8,3,16,jellyfish:12,4,24").values,
      (std::vector<std::string>{"jellyfish:8,3,16", "jellyfish:12,4,24"}));
  EXPECT_EQ(parse_sweep_spec("k=a:b:c").values,
            (std::vector<std::string>{"a:b:c"}));
}

// --- plan expansion --------------------------------------------------------

TEST(RunPlanTest, ExpandsCrossProductInNestedLoopOrder) {
  const RunPlan plan = RunPlan::expand(
      {parse_sweep_spec("a=1,2"), parse_sweep_spec("b=x,y,z")});
  EXPECT_EQ(plan.keys(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(plan.size(), 6u);
  // First spec varies slowest.
  const std::vector<std::pair<std::string, std::string>> expected[] = {
      {{"a", "1"}, {"b", "x"}}, {{"a", "1"}, {"b", "y"}},
      {{"a", "1"}, {"b", "z"}}, {{"a", "2"}, {"b", "x"}},
      {{"a", "2"}, {"b", "y"}}, {{"a", "2"}, {"b", "z"}},
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan.runs()[i].index, static_cast<int>(i));
    EXPECT_EQ(plan.runs()[i].assignments, expected[i]) << "run " << i;
  }
}

TEST(RunPlanTest, SingleSpecAndRejectsDuplicates) {
  const RunPlan plan = RunPlan::expand({parse_sweep_spec("load=0.2,0.4")});
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_TRUE(RunPlan::expand({}).empty());
  EXPECT_THROW(
      RunPlan::expand({parse_sweep_spec("k=1"), parse_sweep_spec("k=2")}),
      std::invalid_argument);
}

// --- worker pool -----------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    util::WorkerPool pool(jobs);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1) << "jobs=" << jobs;
  }
}

TEST(WorkerPoolTest, ReusableAcrossBatchesAndMoreJobsThanTasks) {
  util::WorkerPool pool(8);
  for (int batch = 0; batch < 3; ++batch) {
    std::atomic<int> sum{0};
    pool.parallel_for(3, [&](int i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), 6);
  }
  pool.parallel_for(0, [](int) { FAIL() << "no tasks expected"; });
}

TEST(WorkerPoolTest, ResolveJobs) {
  EXPECT_EQ(util::WorkerPool::resolve_jobs(3), 3);
  // 0 = auto: hardware concurrency.
  EXPECT_GE(util::WorkerPool::resolve_jobs(0), 1);
}

// --- sweep engine ----------------------------------------------------------

// A synthetic scenario: deterministic per-point arithmetic, no simulator, so
// engine behavior is testable in microseconds.
Scenario square_scenario() {
  Scenario scenario;
  scenario.name = "square";
  scenario.description = "emits x, x^2 and a scalar";
  scenario.params = {{"x", "1", "the swept input"},
                     {"k", "10", "a fixed offset"},
                     {"seed", "5", "unused rng seed"}};
  scenario.run = [](RunContext& ctx) {
    const double x = ctx.options.get_double("x", 1);
    const double k = ctx.options.get_double("k", 10);
    MetricTable& table = ctx.metrics.table("points", {"x_plus_k", "x_squared"});
    table.add_row({x + k, x * x});
    ctx.metrics.scalar("seed_used", ctx.options.get_int("seed", 5));
  };
  return scenario;
}

std::string csv_without_wall_times(const MetricWriter& metrics) {
  std::ostringstream out;
  metrics.write_csv(out);
  // Blank out the wall_ms column (last cell of sweep_runs data rows) — the
  // only nondeterministic bytes in merged output.
  std::istringstream in(out.str());
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

const MetricTable* find_table(const MetricWriter& metrics,
                              const std::string& name) {
  for (const auto& table : metrics.tables()) {
    if (table->name() == name) return table.get();
  }
  return nullptr;
}

SweepRequest square_request(const Scenario& scenario, int jobs) {
  SweepRequest request;
  request.scenario = &scenario;
  request.plan = RunPlan::expand({parse_sweep_spec("x=1:4:1")});
  request.jobs = jobs;
  return request;
}

TEST(SweepTest, MergedTablesPrependSweptKeysInOrder) {
  const Scenario scenario = square_scenario();
  SweepRequest request;
  request.scenario = &scenario;
  request.plan =
      RunPlan::expand({parse_sweep_spec("x=1,2"), parse_sweep_spec("k=0,100")});
  request.jobs = 1;
  MetricWriter merged;
  const SweepResult result = run_sweep(request, merged);
  EXPECT_EQ(result.failed, 0);
  ASSERT_EQ(result.statuses.size(), 4u);
  for (const SweepRunStatus& status : result.statuses) {
    EXPECT_TRUE(status.ok) << status.error;
    EXPECT_GE(status.wall_ms, 0);
  }

  // Table order: sweep_runs first, then first-encounter order (the engine
  // appends each run's substrate `perf` table after the scenario's own).
  ASSERT_EQ(merged.tables().size(), 4u);
  EXPECT_EQ(merged.tables()[0]->name(), "sweep_runs");
  EXPECT_EQ(merged.tables()[0]->columns(),
            (std::vector<std::string>{"run", "x", "k", "status", "wall_ms"}));
  const MetricTable* scalars = merged.tables()[1].get();
  EXPECT_EQ(scalars->name(), "sweep_scalars");
  EXPECT_EQ(scalars->columns(),
            (std::vector<std::string>{"x", "k", "name", "value"}));
  const MetricTable* points = merged.tables()[2].get();
  EXPECT_EQ(points->name(), "points");
  EXPECT_EQ(points->columns(),
            (std::vector<std::string>{"x", "k", "x_plus_k", "x_squared"}));
  const MetricTable* perf = merged.tables()[3].get();
  EXPECT_EQ(perf->name(), "perf");
  EXPECT_EQ(perf->columns(),
            (std::vector<std::string>{"x", "k", "counter", "value"}));

  // Rows in plan order, swept cells numeric.
  ASSERT_EQ(points->rows().size(), 4u);
  EXPECT_DOUBLE_EQ(points->rows()[0][0].number(), 1);  // x=1,k=0
  EXPECT_DOUBLE_EQ(points->rows()[0][2].number(), 1);
  EXPECT_DOUBLE_EQ(points->rows()[1][1].number(), 100);  // x=1,k=100
  EXPECT_DOUBLE_EQ(points->rows()[1][2].number(), 101);
  EXPECT_DOUBLE_EQ(points->rows()[3][3].number(), 4);  // x=2,k=100 -> x^2=4
}

TEST(SweepTest, SweptKeyAlreadyInTableIsNotDuplicated) {
  // Scenario tables often echo the swept parameter as a column (fct_sweep's
  // `load`); the merge must not produce `load,load,...` headers.
  Scenario scenario = square_scenario();
  scenario.run = [](RunContext& ctx) {
    const double x = ctx.options.get_double("x", 1);
    ctx.metrics.table("echo", {"x", "x_squared"}).add_row({x, x * x});
  };
  SweepRequest request;
  request.scenario = &scenario;
  request.plan =
      RunPlan::expand({parse_sweep_spec("x=2,3"), parse_sweep_spec("k=0,1")});
  request.jobs = 1;
  MetricWriter merged;
  run_sweep(request, merged);
  const MetricTable* echo = find_table(merged, "echo");
  ASSERT_NE(echo, nullptr);
  // Only the non-colliding key `k` is prepended.
  EXPECT_EQ(echo->columns(), (std::vector<std::string>{"k", "x", "x_squared"}));
  ASSERT_EQ(echo->rows().size(), 4u);
  EXPECT_DOUBLE_EQ(echo->rows()[0][0].number(), 0);  // k=0
  EXPECT_DOUBLE_EQ(echo->rows()[0][1].number(), 2);  // x from the table itself
  EXPECT_DOUBLE_EQ(echo->rows()[3][2].number(), 9);  // x=3,k=1 -> x^2
}

TEST(SweepTest, MergedOutputIndependentOfThreadCount) {
  const Scenario scenario = square_scenario();
  MetricWriter serial, parallel;
  run_sweep(square_request(scenario, 1), serial);
  run_sweep(square_request(scenario, 4), parallel);
  EXPECT_EQ(csv_without_wall_times(serial), csv_without_wall_times(parallel));
}

TEST(SweepTest, VarySeedDerivesSeedFromPlanIndex) {
  const Scenario scenario = square_scenario();
  SweepRequest request = square_request(scenario, 2);
  request.vary_seed = true;
  MetricWriter merged;
  run_sweep(request, merged);
  const MetricTable* scalars = merged.tables()[1].get();
  ASSERT_EQ(scalars->name(), "sweep_scalars");
  ASSERT_EQ(scalars->rows().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(scalars->rows()[i][1].text(), "seed_used");
    // Declared default 5, plus plan index.
    EXPECT_DOUBLE_EQ(scalars->rows()[i][2].number(),
                     5 + static_cast<double>(i));
  }
}

TEST(SweepTest, PerRunErrorsLandInStatusNotThrow) {
  Scenario scenario = square_scenario();
  scenario.run = [](RunContext& ctx) {
    const double x = ctx.options.get_double("x", 1);
    if (x == 3) throw std::runtime_error("x=3 is cursed");
    ctx.metrics.table("points", {"x"}).add_row({x});
  };
  MetricWriter merged;
  const SweepResult result = run_sweep(square_request(scenario, 2), merged);
  EXPECT_EQ(result.failed, 1);
  EXPECT_FALSE(result.statuses[2].ok);
  EXPECT_EQ(result.statuses[2].error, "x=3 is cursed");
  // The failed run contributes no data rows; the others still merge.
  const MetricTable* points = find_table(merged, "points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->rows().size(), 3u);
  // Nor does it contribute perf counters (3 successful runs only).
  const MetricTable* perf = find_table(merged, "perf");
  ASSERT_NE(perf, nullptr);
  EXPECT_EQ(perf->rows().size() % 3, 0u);
  EXPECT_GT(perf->rows().size(), 0u);
}

TEST(SweepTest, RejectsMalformedRequests) {
  const Scenario scenario = square_scenario();
  MetricWriter merged;
  SweepRequest no_scenario;
  no_scenario.plan = RunPlan::expand({parse_sweep_spec("x=1")});
  EXPECT_THROW(run_sweep(no_scenario, merged), std::invalid_argument);

  SweepRequest empty_plan;
  empty_plan.scenario = &scenario;
  EXPECT_THROW(run_sweep(empty_plan, merged), std::invalid_argument);

  Scenario seedless = square_scenario();
  seedless.params = {{"x", "1", "the swept input"}};
  SweepRequest request = square_request(seedless, 1);
  request.vary_seed = true;
  EXPECT_THROW(run_sweep(request, merged), std::invalid_argument);

  // vary_seed fighting a swept seed would silently mislabel runs.
  SweepRequest swept_seed;
  swept_seed.scenario = &scenario;
  swept_seed.plan = RunPlan::expand({parse_sweep_spec("seed=5,9")});
  swept_seed.vary_seed = true;
  EXPECT_THROW(run_sweep(swept_seed, merged), std::invalid_argument);
}

// --- driver integration ----------------------------------------------------

TEST(SweepDriverTest, RejectsSweepUsageErrors) {
  // Unknown swept key.
  EXPECT_EQ(run_cli({"--scenario=incast", "--sweep", "bogus=1,2"}), 2);
  // Duplicate sweep key.
  EXPECT_EQ(run_cli({"--scenario=incast", "--sweep", "fanin=2,3", "--sweep",
                     "fanin=4,5"}),
            2);
  // Key both fixed and swept.
  EXPECT_EQ(run_cli({"--scenario=incast", "fanin=2", "--sweep", "fanin=3,4"}),
            2);
  // Malformed spec / missing argument.
  EXPECT_EQ(run_cli({"--scenario=incast", "--sweep", "fanin=1:2"}), 2);
  EXPECT_EQ(run_cli({"--scenario=incast", "--sweep"}), 2);
  // --vary-seed without --sweep, or fighting a swept seed.
  EXPECT_EQ(run_cli({"--scenario=incast", "--vary-seed"}), 2);
  EXPECT_EQ(run_cli({"--scenario=incast", "--vary-seed", "--sweep",
                     "seed=5,9"}),
            2);
  // Bad --jobs (trailing junk is rejected, not truncated).
  EXPECT_EQ(run_cli({"--scenario=incast", "--jobs=lots"}), 2);
  EXPECT_EQ(run_cli({"--scenario=incast", "--jobs=4x"}), 2);
  EXPECT_EQ(run_cli({"--scenario=incast", "--jobs=-2"}), 2);
}

TEST(SweepDriverTest, EndToEndTinySweepWritesMergedCsv) {
  const std::string path =
      ::testing::TempDir() + "/numfabric_sweep_test_out.csv";
  const int rc = run_cli({"--scenario=incast", "--sweep", "fanin=2,3",
                          "--jobs=2", "hosts_per_leaf=2", "leaves=2",
                          "spines=1", "flow_kb=16", "horizon_ms=100",
                          "--output=" + path});
  EXPECT_EQ(rc, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("# table,sweep_runs"), std::string::npos);
  EXPECT_NE(content.str().find("run,fanin,status,wall_ms"), std::string::npos);
  EXPECT_NE(content.str().find("# table,fct"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace numfabric::app
