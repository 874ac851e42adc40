// Contended-fabric experiments: the oversubscribed-core scenario family.
//
// Two experiments share the oversubscription machinery:
//  * oversub-fabric: long-running permutation background traffic plus an
//    all-to-all shuffle wave launched once the background has settled.  With
//    oversubscription > 1 the core is the bottleneck by construction, so the
//    interesting outputs are core-link utilization over the measurement
//    window, the time xWI prices take to re-stabilize after the wave hits,
//    and the wave's completion times.
//  * background-burst: long-running background flows on a fraction of the
//    hosts plus periodic synchronized incast bursts.  The interesting output
//    is interference: burst FCTs against the background throughput
//    sacrificed while each burst drains.
//
// Both run any transport scheme; price convergence is only tracked for
// NUMFabric (xWI link prices) and reports NaN elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/sharded_simulator.h"
#include "transport/fabric.h"

namespace numfabric::exp {

/// xWI price-stability detection on the core tier: converged at the start of
/// the first window of `hold` during which every core link's price moves
/// less than `margin` (relative) between consecutive samples.
struct PriceConvergenceOptions {
  sim::TimeNs sample_interval = sim::micros(20);
  double margin = 0.05;
  sim::TimeNs hold = sim::micros(200);
};

struct OversubFabricOptions {
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  net::LeafSpineOptions topology;
  transport::FabricOptions fabric;
  /// Core (leaf-spine) per-port buffer in bytes; 0 = same as the edge tier.
  std::size_t core_buffer_bytes = 0;
  /// Utility: alpha-fair (NUMFabric / DGD only; others ignore it).
  double alpha = 1.0;
  /// Bytes every host pair transfers in the shuffle wave.
  std::uint64_t shuffle_flow_bytes = 50'000;
  /// Background settles during [0, warmup); the wave starts at warmup.
  sim::TimeNs warmup = sim::millis(2);
  /// Core utilization / background goodput window: [warmup, warmup+measure].
  sim::TimeNs measure = sim::millis(4);
  /// Hard stop for wave stragglers.  Must be >= warmup + measure.
  sim::TimeNs horizon = sim::millis(200);
  PriceConvergenceOptions price;
  std::uint64_t seed = 1;
  /// Parallel engine shards (1 = serial; 0 = one per leaf, capped at
  /// cores).  Output is bit-identical for every value.
  int shards = 1;
};

struct CoreLinkStats {
  std::string name;
  /// Bytes serialized in the measurement window over rate * window.
  double utilization = 0;
  /// xWI price at window end (0 for non-NUMFabric schemes).
  double price = 0;
};

struct OversubFabricResult {
  double oversubscription = 0;

  int background_flows = 0;
  double background_goodput_bps = 0;  // over the measurement window
  double background_jain = 0;

  int shuffle_flows = 0;
  int shuffle_completed = 0;
  int shuffle_incomplete = 0;
  std::vector<double> shuffle_fct_us;  // completed wave flows

  std::vector<CoreLinkStats> core_links;  // creation order
  double core_util_mean = 0;
  double core_util_min = 0;
  double core_util_max = 0;

  /// Microseconds from the wave's launch until every core link's xWI price
  /// re-stabilized.  Sampling runs until the experiment ends (wave drained
  /// and measurement window closed, or the horizon); NaN when the scheme is
  /// not NUMFabric or prices never held still by then.
  double price_convergence_us = 0;

  std::uint64_t sim_events = 0;
  std::uint64_t queue_drops = 0;
  /// Per-shard engine counters; empty when the run was serial.
  std::vector<sim::ShardPerf> shard_perf;
};

OversubFabricResult run_oversub_fabric(const OversubFabricOptions& options);

struct BackgroundBurstOptions {
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  net::LeafSpineOptions topology;
  transport::FabricOptions fabric;
  std::size_t core_buffer_bytes = 0;
  double alpha = 1.0;
  /// Fraction of the random permutation kept as long-running background
  /// flows (0 = idle fabric, 1 = every host loaded).
  double background_load = 0.5;
  /// Concurrent senders per synchronized burst.
  int burst_fanin = 8;
  std::uint64_t burst_bytes = 20'000;
  /// Bursts fire at warmup, warmup + interval, ... (num_bursts total).
  sim::TimeNs burst_interval = sim::millis(1);
  int num_bursts = 4;
  /// Background settles during [0, warmup).  Must be >= burst_interval / 2
  /// so the first burst has a quiet window to compare against.
  sim::TimeNs warmup = sim::millis(2);
  sim::TimeNs horizon = sim::millis(500);
  std::uint64_t seed = 1;
  /// Parallel engine shards (1 = serial; 0 = one per leaf, capped at cores).
  int shards = 1;
};

struct BurstStats {
  int index = 0;
  double start_ms = 0;
  int completed = 0;
  int incomplete = 0;
  double fct_p50_us = 0;
  double fct_max_us = 0;
  /// Background goodput in the half-interval right after the burst fires...
  double background_during_bps = 0;
  /// ...vs the half-interval right before it (the interference baseline).
  double background_quiet_bps = 0;
};

struct BackgroundBurstResult {
  double oversubscription = 0;
  int background_flows = 0;
  /// Over [warmup, warmup + num_bursts * interval].
  double background_goodput_bps = 0;
  std::vector<BurstStats> bursts;
  int burst_flows = 0;
  int burst_completed = 0;
  int burst_incomplete = 0;
  std::vector<double> burst_fct_us;  // all completed burst flows
  std::uint64_t sim_events = 0;
  std::uint64_t queue_drops = 0;
  /// Per-shard engine counters; empty when the run was serial.
  std::vector<sim::ShardPerf> shard_perf;
};

BackgroundBurstResult run_background_burst(const BackgroundBurstOptions& options);

}  // namespace numfabric::exp
