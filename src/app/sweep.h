// The sweep engine: executes a RunPlan of independent scenario runs on a
// WorkerPool and merges the per-run metrics into one table set.
//
// Isolation: every run builds its own Options (base + that run's swept
// assignments), its own MetricWriter buffer and — inside the scenario — its
// own Simulator, so runs share nothing mutable and the fan-out is safe.
// Merging happens after all runs complete, in plan order, which makes the
// merged output independent of the thread count: `--jobs=1` and `--jobs=8`
// produce identical tables.
//
// Merged layout:
//  * `sweep_runs` table (first): run index, the swept keys, status
//    ("ok" or the error message) and per-run wall time.  Wall time is the
//    only nondeterministic column, quarantined here so the data tables
//    stay reproducible.
//  * every table a run emitted, renamed nothing, with the swept keys
//    prepended as leading columns (spec order; keys the table already
//    carries as a column are not duplicated) and rows appended in plan
//    order;
//  * every scalar a run emitted, folded into a `sweep_scalars` table
//    (swept keys, scalar name, value) — per-run scalars would otherwise
//    collide.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "app/metrics.h"
#include "app/options.h"
#include "app/run_plan.h"
#include "app/scenario.h"

namespace numfabric::app {

struct SweepRequest {
  const Scenario* scenario = nullptr;
  /// Fixed (non-swept) parameters; swept keys must not appear here.
  Options base_options;
  RunPlan plan;
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  bool full_scale = false;
  /// Worker threads (already resolved; >= 1).
  int jobs = 1;
  /// Per-run NUM oracle threads (RunContext::solver_threads; results are
  /// bit-identical for any value).
  int solver_threads = 1;
  /// Per-run engine shards (RunContext::shards; passed through unresolved so
  /// 0 keeps its "one per leaf, capped at cores" meaning inside the run).
  int shards = 1;
  /// Emit per-run solver cost scalars (solver_solves / solver_sweeps /
  /// solver_wall_us) into sweep_scalars.  Off by default: solver_wall_us is
  /// nondeterministic, and the default keeps merged sweep output — which the
  /// golden determinism tests hash — byte-stable.
  bool report_solver_stats = false;
  /// Derive each run's seed as <base seed> + <plan index>.  Requires the
  /// scenario to declare a `seed` parameter.  Off by default so a sweep row
  /// is bit-identical to the equivalent single run.
  bool vary_seed = false;
};

struct SweepRunStatus {
  int index = 0;
  std::vector<std::pair<std::string, std::string>> assignments;
  bool ok = false;
  std::string error;  // empty when ok
  double wall_ms = 0;
};

struct SweepResult {
  std::vector<SweepRunStatus> statuses;  // plan order
  int failed = 0;
};

/// Runs the plan and fills `merged`.  Throws std::invalid_argument on a
/// malformed request (null scenario, empty plan, vary_seed without a seed
/// parameter); per-run scenario errors do not throw — they land in the
/// status table and the run contributes no data rows.
SweepResult run_sweep(const SweepRequest& request, MetricWriter& merged);

}  // namespace numfabric::app
