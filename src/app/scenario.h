// Scenario registry: the seam between experiment code and every driver.
//
// A Scenario bundles a name, a one-line description, a declared parameter
// schema and a run function.  Scenarios register into a ScenarioRegistry
// (usually the process-global one) and are then reachable uniformly from the
// numfabric_run CLI, the bench/fig* figure wrappers and the test suite:
//
//   app::register_builtin_scenarios();
//   const app::Scenario* s = app::ScenarioRegistry::global().find("incast");
//   app::MetricWriter metrics;
//   app::RunContext ctx{resolved_options, transport::Scheme::kNumFabric,
//                       metrics};
//   s->run(ctx);
//   metrics.write_csv(std::cout);
//
// Every scenario accepts the cross-cutting `transport` switch (parsed by the
// driver into RunContext::scheme) plus its declared key=value parameters.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "app/metrics.h"
#include "app/options.h"
#include "transport/flow.h"

namespace numfabric::app {

/// One declared parameter: the scenario's config schema is the list of these.
struct ParamSpec {
  std::string key;
  std::string default_value;
  std::string help;
};

struct RunContext {
  /// Resolved options: declared defaults, then config file, then CLI flags.
  const Options& options;
  /// The --transport switch, already parsed.
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  MetricWriter& metrics;
  /// True under NUMFABRIC_FULL=1: scenarios scale to paper size.
  bool full_scale = false;
  /// --solver-threads: wave-parallel NUM oracle solves (bit-identical to 1).
  int solver_threads = 1;
  /// --shards: parallel engine shards (1 = serial; 0 = one per leaf, capped
  /// at cores; bit-identical to serial).  Only consulted by scenarios with
  /// supports_shards; the driver rejects the flag elsewhere.
  int shards = 1;
};

struct Scenario {
  std::string name;
  std::string description;
  /// Paper figure/table this reproduces ("" for exploratory scenarios).
  std::string figure;
  std::vector<ParamSpec> params;
  std::function<void(RunContext&)> run;
  /// True when the scenario's packet path runs on the sharded engine
  /// (RunContext::shards); the driver rejects --shards != 1 elsewhere
  /// rather than silently running serial.
  bool supports_shards = false;
};

class ScenarioRegistry {
 public:
  /// The process-global registry the CLI and figure wrappers use.
  static ScenarioRegistry& global();

  /// Registers a scenario.  Throws std::invalid_argument on an empty name,
  /// a missing run function or a duplicate name.
  void add(Scenario scenario);

  /// nullptr when unknown.
  const Scenario* find(const std::string& name) const;

  /// All scenarios ordered by name.
  std::vector<const Scenario*> list() const;

  std::size_t size() const { return scenarios_.size(); }
  bool empty() const { return scenarios_.empty(); }

 private:
  // Keyed by name; map nodes are stable, so find() pointers stay valid as
  // more scenarios register.
  std::map<std::string, Scenario> scenarios_;
};

/// Parses a --transport value ("numfabric", "dctcp", "pfabric", "rcp",
/// "dgd"; case-insensitive, "rcp*" accepted).  Throws std::invalid_argument
/// on anything else.
transport::Scheme parse_scheme(const std::string& name);

/// Lower-case CLI token for a scheme (inverse of parse_scheme).
std::string scheme_token(transport::Scheme scheme);

/// Registers the built-in scenarios (ported figure experiments + the
/// incast / permutation / shuffle / FCT-sweep traffic families) into the
/// global registry.  Idempotent.
void register_builtin_scenarios();

}  // namespace numfabric::app
