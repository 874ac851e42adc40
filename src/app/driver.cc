#include "app/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "app/perf.h"
#include "app/run_plan.h"
#include "app/scenario.h"
#include "app/sweep.h"
#include "util/parse.h"
#include "util/worker_pool.h"

namespace numfabric::app {
namespace {

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: numfabric_run --scenario=<name> [--transport=<scheme>] "
      "[key=value ...]\n"
      "       numfabric_run --scenario=<name> --sweep key=a,b,c "
      "[--sweep key=lo:hi:step ...] [--jobs=N]\n"
      "       numfabric_run --list | --describe=<name> | --help\n"
      "\n"
      "global flags:\n"
      "  --scenario=<name>     scenario to run (see --list)\n"
      "  --transport=<scheme>  numfabric | dctcp | pfabric | rcp | dgd "
      "(default numfabric)\n"
      "  --config=<file>       key = value lines layered under CLI params\n"
      "  --format=csv|json     metric output format (default csv)\n"
      "  --output=<file>       write metrics here instead of stdout\n"
      "  --sweep key=<values>  sweep a declared parameter over a comma list\n"
      "                        (a,b,c) or inclusive range (lo:hi:step);\n"
      "                        repeat for a cross-product grid\n"
      "  --jobs=<N>            parallel sweep runs (default 1; 0 = all cores)\n"
      "  --solver-threads=<N>  NUM oracle solve threads (default 1; 0 = all\n"
      "                        cores; results are bit-identical for any N)\n"
      "  --shards=<N>          parallel engine shards for sharded-capable\n"
      "                        scenarios (default 1 = serial; 0 = one shard\n"
      "                        per leaf, capped at cores; output is\n"
      "                        bit-identical for any N)\n"
      "  --solver-stats        add per-run oracle cost scalars to sweep\n"
      "                        output (solver_solves/sweeps/relaxations/\n"
      "                        wall_us)\n"
      "  --vary-seed           per-run seed = base seed + run index\n"
      "  --full                paper-scale runs (same as NUMFABRIC_FULL=1)\n"
      "  --list                list registered scenarios (the fidelity column\n"
      "                        shows which take fidelity=flow, the shards\n"
      "                        column which take --shards=N)\n"
      "  --describe=<name>     show a scenario's parameter schema\n",
      out);
}

/// Which substrates a scenario runs on, read off its declared schema: no
/// `fidelity` knob means packet-only, a knob defaulting to "flow" means the
/// packet substrate cannot express it (mega-fct), anything else does both.
const char* fidelity_support(const Scenario& scenario) {
  for (const ParamSpec& param : scenario.params) {
    if (param.key == "fidelity") {
      return param.default_value == "flow" ? "flow" : "packet|flow";
    }
  }
  return "packet";
}

void print_list() {
  std::printf("%-18s %-10s %-11s %-6s %s\n", "scenario", "figure", "fidelity",
              "shards", "description");
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    std::printf("%-18s %-10s %-11s %-6s %s\n", scenario->name.c_str(),
                scenario->figure.empty() ? "-" : scenario->figure.c_str(),
                fidelity_support(*scenario),
                scenario->supports_shards ? "yes" : "-",
                scenario->description.c_str());
  }
}

int print_describe(const std::string& name) {
  const Scenario* scenario = ScenarioRegistry::global().find(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", name.c_str());
    return 2;
  }
  std::printf("%s — %s\n", scenario->name.c_str(),
              scenario->description.c_str());
  if (!scenario->figure.empty()) {
    std::printf("reproduces: %s\n", scenario->figure.c_str());
  }
  std::printf("\n%-20s %-16s %s\n", "parameter", "default", "help");
  for (const ParamSpec& param : scenario->params) {
    std::printf("%-20s %-16s %s\n", param.key.c_str(),
                param.default_value.c_str(), param.help.c_str());
  }
  return 0;
}

bool env_full_scale() {
  const char* env = std::getenv("NUMFABRIC_FULL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

int run_cli(const std::vector<std::string>& args) {
  register_builtin_scenarios();

  std::string scenario_name, config_path, format = "csv", output_path;
  std::string transport = "numfabric";
  bool full = env_full_scale();
  bool vary_seed = false;
  int jobs = 1;
  int solver_threads = 1;
  int shards = 1;
  bool solver_stats = false;
  std::vector<std::string> sweep_tokens;
  std::vector<std::string> param_tokens;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--list") {
      print_list();
      return 0;
    } else if (arg.rfind("--describe=", 0) == 0) {
      return print_describe(value_of("--describe="));
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario_name = value_of("--scenario=");
    } else if (arg.rfind("--transport=", 0) == 0) {
      transport = value_of("--transport=");
    } else if (arg.rfind("--config=", 0) == 0) {
      config_path = value_of("--config=");
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value_of("--format=");
    } else if (arg.rfind("--output=", 0) == 0) {
      output_path = value_of("--output=");
    } else if (arg.rfind("--sweep=", 0) == 0) {
      sweep_tokens.push_back(value_of("--sweep="));
    } else if (arg == "--sweep") {
      if (i + 1 >= args.size()) {
        std::fputs("--sweep needs a key=values argument\n", stderr);
        return 2;
      }
      sweep_tokens.push_back(args[++i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const auto value = util::parse_int(value_of("--jobs="));
      if (!value || *value < 0 || *value > 4096) {
        std::fprintf(stderr, "bad --jobs value '%s' (expected 0..4096)\n",
                     arg.c_str());
        return 2;
      }
      jobs = static_cast<int>(*value);
    } else if (arg.rfind("--solver-threads=", 0) == 0) {
      const auto value = util::parse_int(value_of("--solver-threads="));
      if (!value || *value < 0 || *value > 4096) {
        std::fprintf(stderr,
                     "bad --solver-threads value '%s' (expected 0..4096)\n",
                     arg.c_str());
        return 2;
      }
      solver_threads = static_cast<int>(*value);
    } else if (arg.rfind("--shards=", 0) == 0) {
      const auto value = util::parse_int(value_of("--shards="));
      if (!value || *value < 0 || *value > 4096) {
        std::fprintf(stderr, "bad --shards value '%s' (expected 0..4096)\n",
                     arg.c_str());
        return 2;
      }
      shards = static_cast<int>(*value);
    } else if (arg == "--solver-stats") {
      solver_stats = true;
    } else if (arg == "--vary-seed") {
      vary_seed = true;
    } else if (arg == "--full") {
      full = true;
    } else {
      param_tokens.push_back(arg);
    }
  }

  if (format != "csv" && format != "json") {
    std::fprintf(stderr, "unknown --format '%s' (expected csv or json)\n",
                 format.c_str());
    return 2;
  }
  if (scenario_name.empty()) {
    print_usage(stderr);
    return 2;
  }
  const Scenario* scenario = ScenarioRegistry::global().find(scenario_name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 scenario_name.c_str());
    return 2;
  }
  if (shards != 1 && !scenario->supports_shards) {
    std::fprintf(stderr,
                 "scenario %s does not run on the sharded engine; drop "
                 "--shards (sharded-capable: see README)\n",
                 scenario_name.c_str());
    return 2;
  }
  // A run at --shards=N uses N threads (its own plus N-1 workers), so
  // --jobs x --shards is the exact thread count; oversubscribing a small
  // machine silently serializes both, so say so up front.  shards == 1 is
  // the serial engine — plain --jobs oversubscription stays silent, as ever.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned effective_shards =
      shards == 0 ? hw : static_cast<unsigned>(shards);
  const unsigned effective_jobs =
      static_cast<unsigned>(util::WorkerPool::resolve_jobs(jobs));
  if (effective_shards > 1 && effective_jobs * effective_shards > hw) {
    std::fprintf(stderr,
                 "warning: --jobs=%u x --shards=%u threads "
                 "oversubscribe %u hardware threads; results stay "
                 "bit-identical but wall time will suffer\n",
                 effective_jobs, effective_shards, hw);
  }

  try {
    Options options;
    if (!config_path.empty()) options.merge(Options::from_file(config_path));
    options.merge(Options::from_tokens(param_tokens));

    // Reject keys the scenario does not declare: typos fail loudly instead
    // of silently running defaults.
    std::set<std::string> declared;
    for (const ParamSpec& param : scenario->params) declared.insert(param.key);
    for (const auto& [key, value] : options.values()) {
      if (declared.count(key) == 0) {
        // `fidelity` gets a pointed message: the knob exists, this scenario
        // just has no flow-fluid model (a generic "unknown parameter" would
        // read like a typo).
        if (key == "fidelity") {
          std::fprintf(stderr,
                       "scenario %s is packet-only: it has no flow-fluid "
                       "model, so fidelity= does not apply "
                       "(--list shows each scenario's fidelity support)\n",
                       scenario->name.c_str());
          return 2;
        }
        std::fprintf(stderr,
                     "scenario %s does not take parameter '%s' "
                     "(see --describe=%s)\n",
                     scenario->name.c_str(), key.c_str(),
                     scenario->name.c_str());
        return 2;
      }
    }

    // Sweep flags are usage errors when malformed, so validate them (and
    // expand the grid) before anything runs.
    RunPlan plan;
    if (!sweep_tokens.empty()) {
      std::vector<SweepSpec> specs;
      try {
        for (const std::string& token : sweep_tokens) {
          specs.push_back(parse_sweep_spec(token));
        }
        plan = RunPlan::expand(specs);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
      for (const SweepSpec& spec : specs) {
        if (declared.count(spec.key) == 0) {
          if (spec.key == "fidelity") {
            std::fprintf(stderr,
                         "scenario %s is packet-only: it has no flow-fluid "
                         "model, so fidelity= cannot be swept "
                         "(--list shows each scenario's fidelity support)\n",
                         scenario->name.c_str());
            return 2;
          }
          std::fprintf(stderr,
                       "scenario %s does not take swept parameter '%s' "
                       "(see --describe=%s)\n",
                       scenario->name.c_str(), spec.key.c_str(),
                       scenario->name.c_str());
          return 2;
        }
        if (options.has(spec.key)) {
          std::fprintf(stderr,
                       "parameter '%s' is both fixed (%s=%s) and swept\n",
                       spec.key.c_str(), spec.key.c_str(),
                       options.get(spec.key, "").c_str());
          return 2;
        }
        if (vary_seed && spec.key == "seed") {
          std::fputs(
              "--vary-seed would override the swept seed values; sweep "
              "seed= or use --vary-seed, not both\n",
              stderr);
          return 2;
        }
      }
    } else if (vary_seed) {
      std::fputs("--vary-seed only applies to --sweep runs\n", stderr);
      return 2;
    }

    MetricWriter metrics;
    metrics.scalar("scenario", scenario->name);
    int exit_code = 0;
    if (sweep_tokens.empty()) {
      RunContext ctx{options, parse_scheme(transport), metrics, full,
                     util::WorkerPool::resolve_jobs(solver_threads), shards};
      const PerfSnapshot perf_snapshot;
      const auto wall_start = std::chrono::steady_clock::now();
      scenario->run(ctx);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - wall_start)
                                 .count();
      const sim::SubstrateStats delta = perf_snapshot.delta();
      record_perf(metrics, delta);
      metrics.scalar("wall_ms", wall_ms);
      metrics.scalar("events_per_sec",
                     wall_ms > 0 ? static_cast<double>(delta.events_fired) *
                                       1000.0 / wall_ms
                                 : 0.0);
      // Oracle cost for this run point (satellite of the perf table; kept
      // out of record_perf so the scenario golden hashes stay stable).
      metrics.scalar("solver_threads", ctx.solver_threads);
      metrics.scalar("solver_solves", delta.solver_solves);
      metrics.scalar("solver_sweeps", delta.solver_sweeps);
      metrics.scalar("solver_relaxations", delta.solver_relaxations);
      metrics.scalar("solver_wall_us",
                     static_cast<double>(delta.solver_wall_ns) / 1000.0);
    } else {
      SweepRequest request;
      request.scenario = scenario;
      request.base_options = options;
      request.plan = std::move(plan);
      request.scheme = parse_scheme(transport);
      request.full_scale = full;
      request.jobs = util::WorkerPool::resolve_jobs(jobs);
      request.solver_threads = util::WorkerPool::resolve_jobs(solver_threads);
      request.shards = shards;
      request.report_solver_stats = solver_stats;
      request.vary_seed = vary_seed;
      const SweepResult result = run_sweep(request, metrics);
      for (const SweepRunStatus& status : result.statuses) {
        if (!status.ok) {
          std::fprintf(stderr, "sweep run %d failed: %s\n", status.index,
                       status.error.c_str());
        }
      }
      if (result.failed > 0) exit_code = 1;
    }

    std::ofstream file;
    if (!output_path.empty()) {
      file.open(output_path);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", output_path.c_str());
        return 1;
      }
    }
    std::ostream& out = output_path.empty() ? std::cout : file;
    if (format == "json") {
      metrics.write_json(out);
    } else {
      metrics.write_csv(out);
    }
    return exit_code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

int run_cli(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run_cli(args);
}

}  // namespace numfabric::app
