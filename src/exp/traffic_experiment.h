// Generic traffic-pattern experiment: one leaf-spine fabric, one traffic
// matrix (incast fan-in, permutation, or all-to-all shuffle), any transport
// scheme.
//
// Two modes share the harness:
//  * rate mode (flow_size_bytes == 0): long-running flows, goodput measured
//    over [warmup, warmup + measure] — throughput fraction of the pattern's
//    optimum plus Jain's fairness index;
//  * FCT mode (flow_size_bytes > 0): all flows start at t = 0 (a
//    synchronized burst / shuffle wave) and run to completion or `horizon` —
//    per-flow completion times.
//
// These are the workload families the paper's evaluation implies but the
// seed lacked; they slot every scheme into identical conditions, which is
// exactly what the scenario registry sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/sharded_simulator.h"
#include "transport/fabric.h"

namespace numfabric::exp {

enum class TrafficPattern {
  kIncast,       // fanin senders -> one receiver
  kPermutation,  // random perfect matching (half the hosts send)
  kAllToAll,     // every ordered host pair
};

const char* traffic_pattern_name(TrafficPattern pattern);
/// Parses "incast" / "permutation" / "all-to-all" (alias "shuffle").
/// Throws std::invalid_argument on anything else.
TrafficPattern parse_traffic_pattern(const std::string& name);

struct TrafficOptions {
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  net::LeafSpineOptions topology;
  /// When set, the run uses a jellyfish random-regular fabric instead of the
  /// leaf-spine in `topology`; routes come from the k-shortest-path table
  /// (k_paths per switch pair).  Jellyfish has no leaf/spine cut, so
  /// shards != 1 is rejected with the shard planner's explanation.
  std::optional<net::JellyfishOptions> jellyfish;
  int k_paths = 8;
  transport::FabricOptions fabric;

  TrafficPattern pattern = TrafficPattern::kPermutation;
  /// Core (leaf-spine) per-port buffer override in bytes; 0 = the scheme's
  /// edge buffer.  Oversubscribed cores often want deeper buffers than the
  /// edge tier.
  std::size_t core_buffer_bytes = 0;
  /// Incast only: number of concurrent senders.
  int incast_fanin = 16;
  /// 0 = rate mode (long-running flows); > 0 = FCT mode (bytes per flow).
  std::uint64_t flow_size_bytes = 0;
  /// Utility: alpha-fair (NUMFabric / DGD only; others ignore it).
  double alpha = 1.0;

  sim::TimeNs warmup = sim::millis(8);    // rate mode
  sim::TimeNs measure = sim::millis(12);  // rate mode
  sim::TimeNs horizon = sim::seconds(5);  // FCT mode hard stop
  std::uint64_t seed = 1;

  /// Parallel engine shards (1 = serial; 0 = one per leaf, capped at
  /// cores).  Output is bit-identical for every value.
  int shards = 1;
};

struct TrafficResult {
  int flow_count = 0;

  // Rate mode.
  std::vector<double> flow_rates_bps;  // per flow, unsorted
  double total_goodput_bps = 0;
  /// Pattern-specific optimum: receiver NIC (incast), pairs * NIC
  /// (permutation), hosts * NIC (all-to-all, ingress-bound).
  double optimal_bps = 0;
  double jain_index = 0;  // fairness over flow_rates_bps

  // FCT mode.
  std::vector<double> fct_us;  // completed flows
  int completed = 0;
  int incomplete = 0;

  std::uint64_t sim_events = 0;
  std::uint64_t queue_drops = 0;
  /// Per-shard engine counters; empty when the run was serial.
  std::vector<sim::ShardPerf> shard_perf;
};

TrafficResult run_traffic_experiment(const TrafficOptions& options);

/// TrafficResult::optimal_bps for `flow_count` flows of `pattern` among
/// `host_count` hosts with `nic_bps` NICs.
double optimal_goodput_bps(TrafficPattern pattern, double nic_bps,
                           std::size_t flow_count, std::size_t host_count);

}  // namespace numfabric::exp
