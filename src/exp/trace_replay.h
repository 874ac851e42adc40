// Trace replay: feed an external workload trace (arrival time / size / src /
// dst per flow, see workload/trace.h) through the packet simulator on a
// leaf-spine fabric and report per-flow completion times.  The bridge that
// makes arbitrary measured workloads runnable — and, via the sweep engine,
// sweepable — against every transport.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "transport/fabric.h"
#include "workload/trace.h"

namespace numfabric::exp {

struct TraceReplayOptions {
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  net::LeafSpineOptions topology;
  transport::FabricOptions fabric;

  /// Host indices in the trace must lie in [0, hosts_per_leaf *
  /// num_leaves); both runners throw std::invalid_argument otherwise.
  std::vector<workload::TraceFlow> trace;

  double alpha = 1.0;
  /// Hard stop; flows not finished by then count as incomplete.
  sim::TimeNs horizon = sim::seconds(20);
};

struct TraceReplayResult {
  struct PerFlow {
    int src = 0;
    int dst = 0;
    std::uint64_t size_bytes = 0;
    double arrival_seconds = 0;
    bool completed = false;
    double fct_seconds = 0;  // valid when completed
  };
  std::vector<PerFlow> flows;  // trace order
  int completed = 0;
  int incomplete = 0;
  std::uint64_t sim_events = 0;
};

TraceReplayResult run_trace_replay(const TraceReplayOptions& options);

}  // namespace numfabric::exp
