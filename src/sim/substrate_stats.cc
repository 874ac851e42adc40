#include "sim/substrate_stats.h"

namespace numfabric::sim {

SubstrateStats SubstrateStats::operator-(const SubstrateStats& rhs) const {
  SubstrateStats out;
  out.events_scheduled = events_scheduled - rhs.events_scheduled;
  out.events_fired = events_fired - rhs.events_fired;
  out.events_cancelled = events_cancelled - rhs.events_cancelled;
  out.packets_forwarded = packets_forwarded - rhs.packets_forwarded;
  out.bytes_forwarded = bytes_forwarded - rhs.bytes_forwarded;
  out.packets_dropped = packets_dropped - rhs.packets_dropped;
  out.control_ticks = control_ticks - rhs.control_ticks;
  out.links_swept = links_swept - rhs.links_swept;
  out.allocs_callable_spill = allocs_callable_spill - rhs.allocs_callable_spill;
  out.allocs_event_queue = allocs_event_queue - rhs.allocs_event_queue;
  out.allocs_packet_pool = allocs_packet_pool - rhs.allocs_packet_pool;
  out.allocs_flow_table = allocs_flow_table - rhs.allocs_flow_table;
  out.allocs_queue = allocs_queue - rhs.allocs_queue;
  out.solver_solves = solver_solves - rhs.solver_solves;
  out.solver_sweeps = solver_sweeps - rhs.solver_sweeps;
  out.solver_relaxations = solver_relaxations - rhs.solver_relaxations;
  out.solver_verifications = solver_verifications - rhs.solver_verifications;
  out.solver_wall_ns = solver_wall_ns - rhs.solver_wall_ns;
  out.allocs_solver_workspace =
      allocs_solver_workspace - rhs.allocs_solver_workspace;
  out.flowsim_epochs = flowsim_epochs - rhs.flowsim_epochs;
  out.flowsim_resolves = flowsim_resolves - rhs.flowsim_resolves;
  return out;
}

SubstrateStats& SubstrateStats::operator+=(const SubstrateStats& rhs) {
  events_scheduled += rhs.events_scheduled;
  events_fired += rhs.events_fired;
  events_cancelled += rhs.events_cancelled;
  packets_forwarded += rhs.packets_forwarded;
  bytes_forwarded += rhs.bytes_forwarded;
  packets_dropped += rhs.packets_dropped;
  control_ticks += rhs.control_ticks;
  links_swept += rhs.links_swept;
  allocs_callable_spill += rhs.allocs_callable_spill;
  allocs_event_queue += rhs.allocs_event_queue;
  allocs_packet_pool += rhs.allocs_packet_pool;
  allocs_flow_table += rhs.allocs_flow_table;
  allocs_queue += rhs.allocs_queue;
  solver_solves += rhs.solver_solves;
  solver_sweeps += rhs.solver_sweeps;
  solver_relaxations += rhs.solver_relaxations;
  solver_verifications += rhs.solver_verifications;
  solver_wall_ns += rhs.solver_wall_ns;
  allocs_solver_workspace += rhs.allocs_solver_workspace;
  flowsim_epochs += rhs.flowsim_epochs;
  flowsim_resolves += rhs.flowsim_resolves;
  return *this;
}

SubstrateStats& substrate_stats() {
  thread_local SubstrateStats stats;
  return stats;
}

}  // namespace numfabric::sim
