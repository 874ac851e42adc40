#include "exp/semi_dynamic.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "exp/common.h"
#include "net/routing.h"
#include "num/num_solver.h"
#include "num/utility.h"
#include "num/waterfill.h"
#include "stats/ewma.h"
#include "transport/receiver.h"
#include "transport/sender_base.h"
#include "workload/scenarios.h"

namespace numfabric::exp {
namespace {

using transport::Flow;

/// One random host pair with a fixed ECMP-chosen route (graph link ids);
/// flows started on the slot are long-running until a stop event hits them.
struct PathSlot {
  workload::HostPair pair;
  std::vector<int> links;
  Flow* flow = nullptr;  // active flow, if any
};

class Driver {
 public:
  explicit Driver(const SemiDynamicOptions& options)
      : options_(options),
        engine_(net::resolve_shard_count(options.shards,
                                         options.topology.num_leaves)),
        fabric_(sim_, patched_fabric_options(options)),
        topo_(sim_),
        rng_(options.seed),
        utility_(options.alpha) {}

  SemiDynamicResult run();

 private:
  static transport::FabricOptions patched_fabric_options(
      const SemiDynamicOptions& options) {
    transport::FabricOptions fabric = options.fabric;
    fabric.scheme = options.scheme;
    return fabric;
  }

  void build_network();
  void start_slot(std::size_t slot_index);
  void stop_slot(std::size_t slot_index);
  std::vector<const Flow*> active_flows() const;
  std::vector<double> oracle_targets_bps();
  void begin_measurement(bool record);
  void apply_event();
  void schedule_trace_sampler();

  SemiDynamicOptions options_;
  // The engine owns the worker threads and every shard queue; it is declared
  // (and thus destroyed) around everything that schedules into it.  All
  // Driver events run on the global stream — only packet forwarding shards.
  sim::ShardedSimulator engine_;
  ShardSetup sharding_;
  sim::Simulator& sim_ = engine_.global();
  transport::Fabric fabric_;
  net::Topology topo_;
  sim::Rng rng_;
  num::AlphaFairUtility utility_;

  BuiltFabric built_;
  std::vector<double> capacities_;  // graph link order, NUM rate units
  std::vector<PathSlot> slots_;
  std::vector<std::size_t> active_;    // slot indices
  std::vector<std::size_t> inactive_;  // slot indices
  std::size_t tracked_slot_ = 0;       // never stopped; traced in Fig. 4(b,c)

  std::unique_ptr<stats::ConvergenceDetector> detector_;
  std::vector<double> warm_prices_;  // oracle warm start between events
  num::NumWorkspace solver_workspace_;
  int events_fired_ = 0;
  SemiDynamicResult result_;
  /// Self-rescheduling sampler closures.  Owned here (not by shared_ptr
  /// self-capture, which forms a reference cycle and leaks): the Driver
  /// outlives the simulation, so closures can reschedule through a plain
  /// pointer into this list.
  std::vector<std::unique_ptr<std::function<void()>>> samplers_;
};

void Driver::build_network() {
  built_ = plan_fabric(options_.topology, std::nullopt, 0);
  materialize_fabric(built_, topo_, fabric_.queue_factory());
  fabric_.attach_agents(topo_);
  apply_sharding(sharding_, engine_, topo_, fabric_, built_);
  capacities_ = graph_capacities(built_.graph);

  const auto pairs =
      workload::random_pairs(built_.mat.hosts, options_.num_paths, rng_);
  slots_.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& paths = pair_paths(built_, built_.host_node.at(pairs[i].src),
                                   built_.host_node.at(pairs[i].dst));
    // Slot i hashes ECMP id i, 0-based unlike FlowPlan's i + 1: the
    // convergence golden pins these picks.
    const auto id = static_cast<net::FlowId>(i);
    slots_.push_back({pairs[i], paths[net::ecmp_index(paths.size(), id)]});
  }

  // Initial active set: the first `initial_active` slots of a random
  // permutation; slot 0 of that permutation is the traced flow and is kept
  // running for the whole experiment.
  const auto order = rng_.permutation(slots_.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k < static_cast<std::size_t>(options_.initial_active)) {
      start_slot(order[k]);
    } else {
      inactive_.push_back(order[k]);
    }
  }
  tracked_slot_ = order.front();
}

void Driver::start_slot(std::size_t slot_index) {
  PathSlot& slot = slots_[slot_index];
  transport::FlowSpec spec;
  spec.src = slot.pair.src;
  spec.dst = slot.pair.dst;
  spec.size_bytes = 0;  // long-running
  spec.start_time = sim_.now();
  spec.utility = &utility_;
  spec.path = to_packet_path(built_, slot.links);
  slot.flow = fabric_.add_flow(std::move(spec));
  active_.push_back(slot_index);
}

void Driver::stop_slot(std::size_t slot_index) {
  PathSlot& slot = slots_[slot_index];
  if (slot.flow == nullptr) throw std::logic_error("stop_slot: slot not active");
  fabric_.stop_flow(*slot.flow);
  slot.flow = nullptr;
  active_.erase(std::find(active_.begin(), active_.end(), slot_index));
  inactive_.push_back(slot_index);
}

std::vector<const Flow*> Driver::active_flows() const {
  std::vector<const Flow*> flows;
  flows.reserve(active_.size());
  for (std::size_t slot_index : active_) flows.push_back(slots_[slot_index].flow);
  return flows;
}

std::vector<double> Driver::oracle_targets_bps() {
  std::vector<std::vector<int>> flow_links;
  flow_links.reserve(active_.size());
  for (std::size_t slot_index : active_) {
    flow_links.push_back(slots_[slot_index].links);
  }
  std::vector<double> targets(active_.size());
  if (options_.use_maxmin_targets) {
    // Expected allocation for DCTCP-style fairness: plain (weight-1) max-min.
    num::WaterfillProblem problem;
    problem.capacities = capacities_;
    problem.weights.assign(active_.size(), 1.0);
    problem.flow_links = std::move(flow_links);
    const auto allocation = num::weighted_max_min(problem);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      targets[i] = num::to_bps(allocation.rates[i]);
    }
    return targets;
  }
  // The active set changes every event, so the problem is recompiled in
  // active order (the legacy summation order — keeps the convergence golden
  // hash stable); the workspace and the explicit warm prices persist across
  // events, making each re-solve warm and allocation-free.
  num::NumProblem problem;
  problem.capacities = capacities_;
  problem.utilities.assign(active_.size(), &utility_);
  problem.flow_links = std::move(flow_links);
  const num::CsrProblem csr = num::CsrProblem::compile(problem);
  num::NumSolverOptions solver_options;
  solver_options.tolerance = 1e-10;
  solver_options.initial_prices = warm_prices_;  // empty on the first event
  solver_options.policy = num::ExecutionPolicy::parallel(options_.solver_threads);
  num::solve(csr, solver_workspace_, solver_options);
  warm_prices_.assign(solver_workspace_.prices().begin(),
                      solver_workspace_.prices().end());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = num::to_bps(solver_workspace_.rates()[i]);
  }
  return targets;
}

void Driver::begin_measurement(bool record) {
  const std::vector<double> targets = oracle_targets_bps();

  // Record the tracked flow's expected rate step (Fig. 4b/c red line).
  const auto flows = active_flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i] == slots_[tracked_slot_].flow) {
      result_.expected_steps.emplace_back(sim::to_millis(sim_.now()), targets[i]);
      break;
    }
  }

  if (options_.fixed_event_interval > 0) {
    // Trace mode without convergence gating (DCTCP): fire the next event on
    // a fixed timer.
    sim_.schedule_in(options_.fixed_event_interval, [this] { apply_event(); });
    return;
  }

  stats::ConvergenceOptions conv = options_.convergence;
  conv.filter_rise_time =
      stats::Ewma::rise_time(options_.fabric.receiver_rate_tau, 0.9);
  auto flows_copy = flows;
  detector_ = std::make_unique<stats::ConvergenceDetector>(
      targets,
      [flows_copy] {
        std::vector<double> rates;
        rates.reserve(flows_copy.size());
        for (const Flow* flow : flows_copy) {
          rates.push_back(flow->attached() ? flow->receiver().rate_bps() : 0.0);
        }
        return rates;
      },
      conv);

  const sim::TimeNs event_time = sim_.now();
  auto* sampler =
      samplers_.emplace_back(std::make_unique<std::function<void()>>()).get();
  *sampler = [this, sampler, event_time, record] {
    if (!detector_->sample(sim_.now())) {
      sim_.schedule_in(options_.convergence.sample_interval, *sampler);
      return;
    }
    if (record) {
      ++result_.events_measured;
      if (detector_->converged()) {
        ++result_.events_converged;
        result_.convergence_times_us.push_back(
            sim::to_micros(detector_->convergence_time(event_time)));
      }
    }
    sim_.schedule_in(options_.event_gap, [this] { apply_event(); });
  };
  sim_.schedule_in(options_.convergence.sample_interval, *sampler);
}

void Driver::apply_event() {
  if (events_fired_ >= options_.num_events) {
    sim_.stop();
    return;
  }
  ++events_fired_;

  const int batch = options_.flows_per_event;
  const int active_count = static_cast<int>(active_.size());
  bool do_start;
  if (active_count + batch > options_.max_active) {
    do_start = false;
  } else if (active_count - batch < options_.min_active) {
    do_start = true;
  } else {
    do_start = rng_.uniform() < 0.5;
  }

  int changed = 0;
  if (do_start) {
    for (; changed < batch && !inactive_.empty(); ++changed) {
      const std::size_t pick = rng_.index(inactive_.size());
      const std::size_t slot_index = inactive_[pick];
      inactive_[pick] = inactive_.back();
      inactive_.pop_back();
      start_slot(slot_index);
    }
  } else {
    // Stop random active slots, never the traced one (which stays active).
    for (; changed < batch && active_.size() > 1; ++changed) {
      std::size_t pick = rng_.index(active_.size());
      if (active_[pick] == tracked_slot_) pick = (pick + 1) % active_.size();
      stop_slot(active_[pick]);
    }
  }
  // An event that starts or stops nothing (the pool is empty, or only the
  // traced flow is left) still waits out the settle, but is not measured:
  // it would add a 0 us convergence time for a change that never happened.
  begin_measurement(/*record=*/changed > 0);
}

void Driver::schedule_trace_sampler() {
  auto* sampler =
      samplers_.emplace_back(std::make_unique<std::function<void()>>()).get();
  *sampler = [this, sampler] {
    const Flow* flow = slots_[tracked_slot_].flow;
    const double rate = (flow != nullptr && flow->attached())
                            ? flow->receiver().rate_bps()
                            : 0.0;
    result_.trace.emplace_back(sim::to_millis(sim_.now()), rate);
    sim_.schedule_in(options_.trace_sample_interval, *sampler);
  };
  sim_.schedule_in(options_.trace_sample_interval, *sampler);
}

SemiDynamicResult Driver::run() {
  build_network();
  if (options_.record_trace) schedule_trace_sampler();
  // Let the initial flow population settle, unrecorded, then run events.
  begin_measurement(/*record=*/false);
  engine_.run();

  result_.sim_events = engine_.events_executed();
  result_.shard_perf = engine_.shard_perf();
  for (const auto& link : topo_.links()) {
    result_.total_queue_drops += link->queue().drops();
  }
  return result_;
}

}  // namespace

SemiDynamicResult run_semi_dynamic(const SemiDynamicOptions& options) {
  // Each message names the scenario key that carries the bad value.
  const auto require = [](bool ok, const std::string& what) {
    if (!ok) throw std::invalid_argument("semi-dynamic: " + what);
  };
  require(options.num_paths >= 1, "paths must be >= 1");
  require(options.initial_active >= 1, "initial_active must be >= 1");
  require(options.flows_per_event >= 1, "flows_per_event must be >= 1");
  require(options.min_active >= 0, "min_active must be >= 0");
  require(options.min_active <= options.max_active,
          "min_active (" + std::to_string(options.min_active) +
              ") must be <= max_active (" +
              std::to_string(options.max_active) + ")");
  require(options.num_events >= 0, "events must be >= 0");
  Driver driver(options);
  return driver.run();
}

}  // namespace numfabric::exp
