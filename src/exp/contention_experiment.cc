#include "exp/contention_experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "exp/common.h"
#include "exp/flow_plan.h"
#include "num/utility.h"
#include "sim/random.h"
#include "stats/summary.h"
#include "transport/control_plane.h"
#include "transport/receiver.h"
#include "workload/scenarios.h"

namespace numfabric::exp {
namespace {

BuiltFabric build_fabric(net::Topology& topo, transport::Fabric& fabric,
                         const net::LeafSpineOptions& topology,
                         std::size_t core_buffer_bytes) {
  BuiltFabric built = plan_fabric(topology, std::nullopt, 0);
  // queue_factory(0) falls back to the scheme's edge capacity, so an unset
  // core buffer just mirrors the edge tier.
  materialize_fabric(built, topo, fabric.queue_factory(),
                     fabric.queue_factory(core_buffer_bytes));
  return built;
}

/// Every switch-to-switch link, both directions, in graph link order (per
/// leaf, uplink before downlink) — the contended tier.
std::vector<net::Link*> core_links(const BuiltFabric& built) {
  const net::FabricGraph& graph = built.graph;
  const auto is_switch = [&graph](int node) {
    return graph.nodes()[static_cast<std::size_t>(node)].kind ==
           net::GraphNodeKind::kSwitch;
  };
  std::vector<net::Link*> links;
  for (int link = 0; link < graph.num_links(); ++link) {
    if (is_switch(graph.link_src(link)) && is_switch(graph.link_dst(link))) {
      links.push_back(built.mat.links[static_cast<std::size_t>(link)]);
    }
  }
  return links;
}

/// Watches the core tier's xWI prices for stability: converged at the start
/// of the first `hold`-long run of samples where no price moves more than
/// `margin` relative to the larger of its old and new values.
///
/// Prices come from the ControlPlane's contiguous snapshot span, indexed by
/// the core links' slot ids.  Only NUMFabric's xWI prices are tracked; other
/// schemes disable tracking (their convergence metric reports NaN).
struct PriceTracker {
  std::span<const double> prices;        // ControlPlane snapshot, by slot
  std::vector<std::uint32_t> slots;      // core links' slot ids
  std::vector<double> last;
  PriceConvergenceOptions options;
  sim::TimeNs stable_since = -1;
  sim::TimeNs converged_at = -1;

  PriceTracker(const transport::Fabric& fabric,
               const std::vector<net::Link*>& core_links,
               const PriceConvergenceOptions& opts)
      : options(opts) {
    if (fabric.options().scheme == transport::Scheme::kNumFabric) {
      prices = fabric.control_plane()->snapshot_prices();
      slots.reserve(core_links.size());
      for (const net::Link* link : core_links) {
        slots.push_back(link->control_slot());
      }
    }
    last.resize(size(), 0.0);
  }

  std::size_t size() const { return slots.size(); }
  double price(std::size_t i) const { return prices[slots[i]]; }

  bool enabled() const { return size() > 0; }
  bool done() const { return converged_at >= 0; }

  void baseline() {
    for (std::size_t i = 0; i < size(); ++i) last[i] = price(i);
  }

  void sample(sim::TimeNs now) {
    // Stability is judged against the price vector's own scale (its max
    // entry): a decaying near-zero price on an idle link must not mask the
    // bottleneck prices having settled, and absolute thresholds would be
    // meaningless across utility functions.
    double scale = 1e-12;
    for (std::size_t i = 0; i < size(); ++i) {
      scale = std::max({scale, price(i), last[i]});
    }
    bool stable = true;
    for (std::size_t i = 0; i < size(); ++i) {
      const double p = price(i);
      if (std::abs(p - last[i]) > options.margin * scale) stable = false;
      last[i] = p;
    }
    if (!stable) {
      stable_since = -1;
      return;
    }
    if (stable_since < 0) stable_since = now - options.sample_interval;
    if (now - stable_since >= options.hold) converged_at = stable_since;
  }
};

std::uint64_t total_queue_drops(const net::Topology& topo) {
  std::uint64_t drops = 0;
  for (const auto& link : topo.links()) drops += link->queue().drops();
  return drops;
}

}  // namespace

OversubFabricResult run_oversub_fabric(const OversubFabricOptions& options) {
  if (options.horizon < options.warmup + options.measure) {
    throw std::invalid_argument(
        "run_oversub_fabric: horizon must cover warmup + measure");
  }
  sim::ShardedSimulator engine(
      net::resolve_shard_count(options.shards, options.topology.num_leaves));
  sim::Simulator& sim = engine.global();
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built =
      build_fabric(topo, fabric, options.topology, options.core_buffer_bytes);
  fabric.attach_agents(topo);
  ShardSetup sharding;
  apply_sharding(sharding, engine, topo, fabric, built);
  const std::vector<net::Link*> core = core_links(built);

  // Background flows first, then the wave: plan index i is fabric flow i + 1.
  sim::Rng rng(options.seed);
  const auto background_pairs =
      workload::permutation_pairs(built.mat.hosts, rng);
  FlowPlan plan;
  for (const auto& pair : background_pairs) {
    plan.add_flow(built, pair.src, pair.dst, 0, 0);
  }
  for (const auto& pair : workload::all_to_all_pairs(built.mat.hosts)) {
    plan.add_flow(built, pair.src, pair.dst, options.warmup,
                  options.shuffle_flow_bytes);
  }

  const num::AlphaFairUtility utility(options.alpha);
  // Background flows are long-running and never complete, so this counts
  // finished wave flows only.  Completions fire on the source host's shard
  // worker, so the counter the coordinator polls is atomic.
  std::atomic<int> wave_done{0};
  fabric.set_on_complete([&wave_done](transport::Flow&) {
    wave_done.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.flows.size());
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    flows.push_back(fabric.add_flow(plan.packet_spec(built, i, &utility)));
  }
  const std::span<const transport::Flow* const> all(flows);
  const auto background = all.first(background_pairs.size());
  const auto wave = all.subspan(background_pairs.size());

  // Snapshots bounding the measurement window [warmup, warmup + measure].
  std::vector<std::uint64_t> background_start(background.size(), 0);
  std::vector<std::uint64_t> background_end(background.size(), 0);
  std::vector<std::uint64_t> core_start(core.size(), 0);
  std::vector<std::uint64_t> core_end(core.size(), 0);
  PriceTracker tracker(fabric, core, options.price);
  sim.schedule_at(options.warmup, [&] {
    for (std::size_t i = 0; i < background.size(); ++i) {
      background_start[i] = background[i]->receiver().total_bytes();
    }
    for (std::size_t i = 0; i < core.size(); ++i) {
      core_start[i] = core[i]->bytes_sent();
    }
    tracker.baseline();
  });
  const sim::TimeNs measure_end = options.warmup + options.measure;
  sim.schedule_at(measure_end, [&] {
    for (std::size_t i = 0; i < background.size(); ++i) {
      background_end[i] = background[i]->receiver().total_bytes();
    }
    for (std::size_t i = 0; i < core.size(); ++i) {
      core_end[i] = core[i]->bytes_sent();
    }
  });

  // Price sampling: from the wave's launch until stable or the horizon (the
  // run loop below exits once the wave drains and the measurement window
  // closes, so in practice sampling stops with the experiment).
  std::function<void()> price_tick;
  price_tick = [&] {
    tracker.sample(sim.now());
    if (!tracker.done() &&
        sim.now() + tracker.options.sample_interval <= options.horizon) {
      sim.schedule_at(sim.now() + tracker.options.sample_interval,
                      [&] { price_tick(); });
    }
  };
  if (tracker.enabled()) {
    sim.schedule_at(options.warmup + tracker.options.sample_interval,
                    [&] { price_tick(); });
  }

  const int wave_total = static_cast<int>(wave.size());
  while ((wave_done.load(std::memory_order_relaxed) < wave_total ||
          engine.now() < measure_end) &&
         engine.now() < options.horizon && engine.pending()) {
    engine.run_until(std::min(engine.now() + sim::millis(1), options.horizon));
  }

  OversubFabricResult result;
  result.oversubscription = options.topology.oversubscription();
  result.background_flows = static_cast<int>(background.size());
  std::vector<double> background_rates;
  background_rates.reserve(background.size());
  for (std::size_t i = 0; i < background.size(); ++i) {
    const double rate = window_rate_bps(background_start[i], background_end[i],
                                        options.measure);
    background_rates.push_back(rate);
    result.background_goodput_bps += rate;
  }
  result.background_jain = jain_index(background_rates);

  result.shuffle_flows = wave_total;
  for (const transport::Flow* flow : wave) {
    if (!flow->completed()) {
      ++result.shuffle_incomplete;
      continue;
    }
    ++result.shuffle_completed;
    result.shuffle_fct_us.push_back(sim::to_micros(flow->fct()));
  }

  const double window_seconds = sim::to_seconds(options.measure);
  result.core_util_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < core.size(); ++i) {
    const net::Link* link = core[i];
    CoreLinkStats row;
    row.name = link->name();
    row.utilization = static_cast<double>(core_end[i] - core_start[i]) * 8.0 /
                      (link->rate_bps() * window_seconds);
    if (i < tracker.last.size()) row.price = tracker.last[i];
    result.core_util_mean += row.utilization;
    result.core_util_min = std::min(result.core_util_min, row.utilization);
    result.core_util_max = std::max(result.core_util_max, row.utilization);
    result.core_links.push_back(std::move(row));
  }
  if (!result.core_links.empty()) {
    result.core_util_mean /= static_cast<double>(result.core_links.size());
  } else {
    result.core_util_min = 0;
  }

  result.price_convergence_us =
      tracker.done() ? sim::to_micros(tracker.converged_at - options.warmup)
                     : std::numeric_limits<double>::quiet_NaN();
  result.sim_events = engine.events_executed();
  result.shard_perf = engine.shard_perf();
  result.queue_drops = total_queue_drops(topo);
  return result;
}

BackgroundBurstResult run_background_burst(const BackgroundBurstOptions& options) {
  if (options.num_bursts < 1) {
    throw std::invalid_argument("run_background_burst: num_bursts must be >= 1");
  }
  if (options.burst_interval / 2 <= 0) {
    throw std::invalid_argument(
        "run_background_burst: burst_interval must be at least 2 ns (the "
        "interference windows are half an interval wide)");
  }
  if (options.warmup < options.burst_interval / 2) {
    throw std::invalid_argument(
        "run_background_burst: warmup must be >= burst_interval / 2 (the "
        "first burst needs a quiet window before it)");
  }
  const sim::TimeNs background_end_time =
      options.warmup + options.num_bursts * options.burst_interval;
  if (options.horizon < background_end_time) {
    throw std::invalid_argument(
        "run_background_burst: horizon must cover warmup + num_bursts * "
        "burst_interval");
  }
  if (!(options.background_load >= 0 && options.background_load <= 1)) {
    throw std::invalid_argument(
        "run_background_burst: background_load must be in [0, 1]");
  }

  sim::ShardedSimulator engine(
      net::resolve_shard_count(options.shards, options.topology.num_leaves));
  sim::Simulator& sim = engine.global();
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built =
      build_fabric(topo, fabric, options.topology, options.core_buffer_bytes);
  fabric.attach_agents(topo);
  ShardSetup sharding;
  apply_sharding(sharding, engine, topo, fabric, built);

  sim::Rng rng(options.seed);
  auto background_pairs = workload::permutation_pairs(built.mat.hosts, rng);
  const std::size_t keep = static_cast<std::size_t>(std::llround(
      options.background_load * static_cast<double>(background_pairs.size())));
  background_pairs.resize(std::min(keep, background_pairs.size()));

  // Background flows first, then each burst's flows: plan index i is fabric
  // flow i + 1.
  FlowPlan plan;
  for (const auto& pair : background_pairs) {
    plan.add_flow(built, pair.src, pair.dst, 0, 0);
  }
  // Plan index of each burst's first flow, then one past the last burst's.
  std::vector<std::size_t> burst_begin;
  for (int k = 0; k < options.num_bursts; ++k) {
    burst_begin.push_back(plan.flows.size());
    const sim::TimeNs start = options.warmup + k * options.burst_interval;
    for (const auto& pair :
         workload::incast_pairs(built.mat.hosts, options.burst_fanin, rng)) {
      plan.add_flow(built, pair.src, pair.dst, start, options.burst_bytes);
    }
  }
  burst_begin.push_back(plan.flows.size());

  const num::AlphaFairUtility utility(options.alpha);
  // Burst completions fire on shard workers; the coordinator polls the count.
  std::atomic<int> burst_done{0};
  fabric.set_on_complete([&burst_done](transport::Flow&) {
    burst_done.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.flows.size());
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    flows.push_back(fabric.add_flow(plan.packet_spec(built, i, &utility)));
  }
  const std::span<const transport::Flow* const> all(flows);
  const auto background = all.first(background_pairs.size());
  std::vector<std::span<const transport::Flow* const>> bursts;
  for (std::size_t k = 0; k + 1 < burst_begin.size(); ++k) {
    bursts.push_back(
        all.subspan(burst_begin[k], burst_begin[k + 1] - burst_begin[k]));
  }

  // Background byte totals sampled at the interference window boundaries:
  // quiet [t_k - interval/2, t_k), during [t_k, t_k + interval/2), plus the
  // whole-run window [warmup, background_end_time].
  const auto background_total = [&background] {
    std::uint64_t total = 0;
    for (const transport::Flow* flow : background) {
      total += flow->receiver().total_bytes();
    }
    return total;
  };
  const std::size_t burst_count = bursts.size();
  std::vector<std::uint64_t> quiet_start(burst_count, 0);
  std::vector<std::uint64_t> at_burst(burst_count, 0);
  std::vector<std::uint64_t> during_end(burst_count, 0);
  std::uint64_t run_start = 0, run_end = 0;
  const sim::TimeNs half = options.burst_interval / 2;
  sim.schedule_at(options.warmup, [&] { run_start = background_total(); });
  sim.schedule_at(background_end_time, [&] { run_end = background_total(); });
  for (std::size_t k = 0; k < burst_count; ++k) {
    const sim::TimeNs start =
        options.warmup + static_cast<sim::TimeNs>(k) * options.burst_interval;
    sim.schedule_at(start - half, [&quiet_start, &background_total, k] {
      quiet_start[k] = background_total();
    });
    sim.schedule_at(start, [&at_burst, &background_total, k] {
      at_burst[k] = background_total();
    });
    sim.schedule_at(start + half, [&during_end, &background_total, k] {
      during_end[k] = background_total();
    });
  }

  const int burst_total = static_cast<int>(all.size() - background.size());
  while ((burst_done.load(std::memory_order_relaxed) < burst_total ||
          engine.now() < background_end_time) &&
         engine.now() < options.horizon && engine.pending()) {
    engine.run_until(std::min(engine.now() + sim::millis(1), options.horizon));
  }

  BackgroundBurstResult result;
  result.oversubscription = options.topology.oversubscription();
  result.background_flows = static_cast<int>(background.size());
  result.background_goodput_bps = window_rate_bps(
      run_start, run_end, background_end_time - options.warmup);
  result.burst_flows = burst_total;

  for (std::size_t k = 0; k < burst_count; ++k) {
    BurstStats row;
    row.index = static_cast<int>(k);
    row.start_ms = sim::to_millis(
        options.warmup + static_cast<sim::TimeNs>(k) * options.burst_interval);
    std::vector<double> fcts;
    for (const transport::Flow* flow : bursts[k]) {
      if (!flow->completed()) {
        ++row.incomplete;
        continue;
      }
      ++row.completed;
      fcts.push_back(sim::to_micros(flow->fct()));
      result.burst_fct_us.push_back(fcts.back());
    }
    if (!fcts.empty()) {
      std::sort(fcts.begin(), fcts.end());
      row.fct_p50_us = stats::percentile(fcts, 50);
      row.fct_max_us = fcts.back();
    }
    row.background_quiet_bps = window_rate_bps(quiet_start[k], at_burst[k], half);
    row.background_during_bps =
        window_rate_bps(at_burst[k], during_end[k], half);
    result.burst_completed += row.completed;
    result.burst_incomplete += row.incomplete;
    result.bursts.push_back(std::move(row));
  }

  result.sim_events = engine.events_executed();
  result.shard_perf = engine.shard_perf();
  result.queue_drops = total_queue_drops(topo);
  return result;
}

}  // namespace numfabric::exp
