#include "app/perf.h"

namespace numfabric::app {

void record_perf(MetricWriter& metrics, const sim::SubstrateStats& delta) {
  MetricTable& table = metrics.table("perf", {"counter", "value"});
  const auto row = [&table](const char* name, std::uint64_t value) {
    table.add_row({name, value});
  };
  row("events_scheduled", delta.events_scheduled);
  row("events_fired", delta.events_fired);
  row("events_cancelled", delta.events_cancelled);
  row("packets_forwarded", delta.packets_forwarded);
  row("bytes_forwarded", delta.bytes_forwarded);
  row("packets_dropped", delta.packets_dropped);
  row("control_ticks", delta.control_ticks);
  row("links_swept", delta.links_swept);
  row("flowsim_epochs", delta.flowsim_epochs);
  row("flowsim_resolves", delta.flowsim_resolves);
  // Only present when the incremental solver path ran: every golden-hashed
  // scenario runs with incremental OFF, where both counters are 0 and the
  // table stays byte-identical to the pre-incremental format.
  if (delta.solver_relaxations != 0) {
    row("solver_relaxations", delta.solver_relaxations);
  }
  if (delta.solver_verifications != 0) {
    row("solver_verifications", delta.solver_verifications);
  }
  row("allocs_callable_spill", delta.allocs_callable_spill);
  row("allocs_event_queue", delta.allocs_event_queue);
  row("allocs_packet_pool", delta.allocs_packet_pool);
  row("allocs_flow_table", delta.allocs_flow_table);
  row("allocs_queue", delta.allocs_queue);
  row("allocs_total", delta.allocs_total());
}

}  // namespace numfabric::app
