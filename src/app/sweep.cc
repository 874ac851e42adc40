#include "app/sweep.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "app/perf.h"
#include "util/parse.h"
#include "util/worker_pool.h"

namespace numfabric::app {
namespace {

/// Swept tokens that parse fully as numbers become numeric cells (so "0.4"
/// merges as the number 0.4); anything else stays text.
MetricValue sweep_cell(const std::string& token) {
  const auto value = util::parse_double(token);
  return value ? MetricValue(*value) : MetricValue(token);
}

std::string seed_default(const Scenario& scenario) {
  for (const ParamSpec& param : scenario.params) {
    if (param.key == "seed") return param.default_value;
  }
  return "";
}

}  // namespace

SweepResult run_sweep(const SweepRequest& request, MetricWriter& merged) {
  if (request.scenario == nullptr) {
    throw std::invalid_argument("run_sweep: no scenario");
  }
  const Scenario& scenario = *request.scenario;
  if (request.plan.empty()) {
    throw std::invalid_argument("run_sweep: empty plan");
  }
  std::int64_t base_seed = 0;
  if (request.vary_seed) {
    for (const std::string& key : request.plan.keys()) {
      if (key == "seed") {
        throw std::invalid_argument(
            "--vary-seed: seed is already swept; derived seeds would "
            "silently override the swept values");
      }
    }
    const std::string fallback = seed_default(scenario);
    if (fallback.empty() && !request.base_options.has("seed")) {
      throw std::invalid_argument("--vary-seed: scenario " + scenario.name +
                                  " has no seed parameter");
    }
    base_seed = request.base_options.get_int(
        "seed", fallback.empty() ? 0 : std::stoll(fallback));
  }

  const std::vector<RunSpec>& runs = request.plan.runs();
  std::vector<MetricWriter> buffers(runs.size());
  SweepResult result;
  result.statuses.resize(runs.size());

  util::WorkerPool pool(request.jobs);
  pool.parallel_for(static_cast<int>(runs.size()), [&](int i) {
    const RunSpec& run = runs[static_cast<std::size_t>(i)];
    SweepRunStatus& status = result.statuses[static_cast<std::size_t>(i)];
    status.index = run.index;
    status.assignments = run.assignments;

    Options options = request.base_options;
    for (const auto& [key, value] : run.assignments) options.set(key, value);
    if (request.vary_seed) {
      options.set("seed", std::to_string(base_seed + run.index));
    }

    const auto start = std::chrono::steady_clock::now();
    try {
      RunContext ctx{options, request.scheme,
                     buffers[static_cast<std::size_t>(i)], request.full_scale,
                     request.solver_threads, request.shards};
      // Counters are thread-local and this run executes entirely on this
      // worker, so the delta isolates the run's substrate activity.
      const PerfSnapshot perf_snapshot;
      scenario.run(ctx);
      const sim::SubstrateStats delta = perf_snapshot.delta();
      record_perf(buffers[static_cast<std::size_t>(i)], delta);
      if (request.report_solver_stats) {
        MetricWriter& buffer = buffers[static_cast<std::size_t>(i)];
        buffer.scalar("solver_threads", request.solver_threads);
        buffer.scalar("solver_solves", delta.solver_solves);
        buffer.scalar("solver_sweeps", delta.solver_sweeps);
        buffer.scalar("solver_relaxations", delta.solver_relaxations);
        buffer.scalar("solver_wall_us",
                      static_cast<double>(delta.solver_wall_ns) / 1000.0);
      }
      status.ok = true;
    } catch (const std::exception& error) {
      status.error = error.what();
    } catch (...) {
      status.error = "unknown error";
    }
    status.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  });

  // Merge in plan order — deterministic regardless of completion order.
  const std::vector<std::string>& keys = request.plan.keys();
  std::vector<std::string> status_columns = {"run"};
  status_columns.insert(status_columns.end(), keys.begin(), keys.end());
  status_columns.push_back("status");
  status_columns.push_back("wall_ms");
  MetricTable& run_table = merged.table("sweep_runs", status_columns);
  for (const SweepRunStatus& status : result.statuses) {
    std::vector<MetricValue> row = {status.index};
    for (const auto& [key, value] : status.assignments) {
      row.push_back(sweep_cell(value));
    }
    row.push_back(status.ok ? std::string("ok") : "error: " + status.error);
    row.push_back(status.wall_ms);
    run_table.add_row(std::move(row));
    if (!status.ok) ++result.failed;
  }

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const MetricWriter& buffer = buffers[i];
    std::vector<MetricValue> prefix;
    for (const auto& [key, value] : runs[i].assignments) {
      prefix.push_back(sweep_cell(value));
    }

    if (!buffer.scalars().empty()) {
      std::vector<std::string> columns(keys);
      columns.push_back("name");
      columns.push_back("value");
      MetricTable& scalars = merged.table("sweep_scalars", columns);
      for (const auto& [name, value] : buffer.scalars()) {
        std::vector<MetricValue> row = prefix;
        row.push_back(name);
        row.push_back(value);
        scalars.add_row(std::move(row));
      }
    }
    for (const auto& table : buffer.tables()) {
      // Prepend only the swept keys the table doesn't already carry as a
      // column (e.g. fct_sweep has its own `load`, which in a `load` sweep
      // holds exactly the swept value) — a duplicated column name would
      // break name-based CSV/JSON consumers.
      std::vector<std::string> columns;
      std::vector<MetricValue> table_prefix;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (std::find(table->columns().begin(), table->columns().end(),
                      keys[k]) != table->columns().end()) {
          continue;
        }
        columns.push_back(keys[k]);
        table_prefix.push_back(prefix[k]);
      }
      columns.insert(columns.end(), table->columns().begin(),
                     table->columns().end());
      MetricTable& out = merged.table(table->name(), columns);
      for (const auto& in_row : table->rows()) {
        std::vector<MetricValue> row = table_prefix;
        row.insert(row.end(), in_row.begin(), in_row.end());
        out.add_row(std::move(row));
      }
    }
  }
  return result;
}

}  // namespace numfabric::app
