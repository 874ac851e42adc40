// pFabric [3] host behavior — the FCT-minimization comparison of Fig. 7.
//
// pFabric moves all scheduling into the switches (priority = remaining flow
// size, served smallest-first, dropped largest-first) and keeps host rate
// control minimal: flows start at line rate with a window of one BDP and
// recover losses with a small timeout.  Our reproduction keeps exactly that
// mechanism set: Fig. 7 compares against pFabric's switch scheduling, not
// against host-side tuning.
#pragma once

#include "transport/sender_base.h"

namespace numfabric::transport {

struct PFabricConfig {
  /// Fixed congestion window in BDPs of the first-hop link.
  double window_bdp = 1.0;
  sim::TimeNs base_rtt = sim::micros(16);
  /// Small timeout (~3 RTTs in the pFabric paper) for loss recovery.
  sim::TimeNs rto = sim::micros(48);
  std::uint32_t packet_bytes = 1500;
  /// Per-port buffering; pFabric uses shallow buffers (~2 BDP).
  std::size_t queue_capacity_bytes = 40'000;
};

class PFabricSender : public SenderBase {
 public:
  PFabricSender(sim::Simulator& sim, const FlowSpec& spec, SenderCallbacks callbacks,
                const PFabricConfig& config);

  void start() override;

 protected:
  void on_ack(const net::Packet& ack, std::uint64_t newly_acked) override;
  void decorate_data(net::Packet& packet) override;
  void on_timeout() override { try_send(); }

 private:
  void try_send();

  double window_bytes_;
};

}  // namespace numfabric::transport
