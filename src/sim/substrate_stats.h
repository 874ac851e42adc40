// Thread-local counters for the simulation substrate's hot path.
//
// Every component of the allocation-free substrate (event queue, link
// forwarding, packet rings, dense flow tables) increments these as it works.
// They serve two purposes: the `perf` metric table every numfabric_run /
// sweep invocation emits, and the zero-allocation guarantee — the `allocs_*`
// counters tick only when a substrate container actually touches the heap
// (SBO spill, vector growth, table rehash), so a steady-state window with
// zero alloc deltas is a measured fact, not an assumption.
//
// Counters are thread-local because the sweep engine runs one scenario per
// worker thread: a snapshot/delta pair taken on the run's own thread isolates
// that run's counts without threading a stats object through every
// constructor in sim/, net/ and transport/.
#pragma once

#include <cstdint>

namespace numfabric::sim {

struct SubstrateStats {
  // Event queue.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t events_cancelled = 0;

  // Link forwarding.
  std::uint64_t packets_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t packets_dropped = 0;

  // Batched control plane (transport::ControlPlane): synchronized price
  // sweeps and the per-link updates they performed.  links_swept /
  // control_ticks == fabric link count; one tick per interval regardless of
  // fabric size is the batching invariant.
  std::uint64_t control_ticks = 0;
  std::uint64_t links_swept = 0;

  // Heap allocations performed by substrate containers.  Zero deltas across
  // a steady-state window == allocation-free forwarding.
  std::uint64_t allocs_callable_spill = 0;  // InlineEvent captures > SBO
  std::uint64_t allocs_event_queue = 0;     // event heap/slot vector growth
  std::uint64_t allocs_packet_pool = 0;     // packet ring / pool growth
  std::uint64_t allocs_flow_table = 0;      // dense flow-table rehash
  std::uint64_t allocs_queue = 0;           // queue-internal vector growth

  // NUM solver (num::solve): solve invocations, Gauss-Seidel sweeps run and
  // wall time spent inside them.  allocs_solver_workspace ticks only when a
  // NumWorkspace buffer actually grows — a warm re-solve with a zero delta is
  // the measured allocation-free guarantee.  It is deliberately NOT part of
  // allocs_total(): that sum feeds the perf metric table (and through it the
  // scenario golden hashes), which tracks the simulation substrate, not the
  // oracle.
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_sweeps = 0;
  /// Worklist pops by the incremental path (NumSolverOptions::incremental);
  /// stays 0 for full solves, so the perf table only grows a row when the
  /// incremental path actually ran (golden hashes with incremental OFF are
  /// untouched).
  std::uint64_t solver_relaxations = 0;
  /// Links relaxed by the incremental path's verification sweeps; 0 for
  /// full solves, like solver_relaxations.
  std::uint64_t solver_verifications = 0;
  std::uint64_t solver_wall_ns = 0;
  std::uint64_t allocs_solver_workspace = 0;

  // Flow-fluid engine (flowsim::FlowSimEngine): epochs advanced (arrival
  // admissions, departures, periodic re-solve ticks) and NUM re-solves
  // performed.  Deterministic, so they live in the perf metric table; a
  // packet-fidelity run reports both as 0.
  std::uint64_t flowsim_epochs = 0;
  std::uint64_t flowsim_resolves = 0;

  std::uint64_t allocs_total() const {
    return allocs_callable_spill + allocs_event_queue + allocs_packet_pool +
           allocs_flow_table + allocs_queue;
  }

  /// Per-field subtraction (for snapshot/delta reporting).
  SubstrateStats operator-(const SubstrateStats& rhs) const;

  /// Per-field accumulation (the sharded engine folds worker-thread deltas
  /// into the coordinator's thread-local counters).
  SubstrateStats& operator+=(const SubstrateStats& rhs);
};

/// This thread's counters.  Components increment them directly; reporting
/// code snapshots before a run and subtracts after.
SubstrateStats& substrate_stats();

}  // namespace numfabric::sim
