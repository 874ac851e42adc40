// Batched control plane: one synchronized price tick over dense SoA state.
//
// NUMFabric's xWI layer (Fig. 3) and the DGD (Eq. 14) and RCP* (Eq. 15)
// comparison schemes are defined as *synchronized* per-interval updates of
// per-link state: the paper assumes PTP-grade clock sync and has every
// switch recompute at the same instants (§5, Table 2: every 30 us for xWI,
// 16 us for DGD and RCP*).  ControlPlane is the one implementation of all
// three.  It owns every link's state for the active scheme in
// structure-of-arrays form — prices, residual observations, serviced bytes,
// RCP* fair shares, the per-packet stamps — and drives the fabric from ONE
// sim::PeriodicTick: every interval a single event sweeps the links in slot
// order.  The forwarding hot path reads/writes the arrays through an index
// baked into each Link (net::LinkControlArrays; no virtual dispatch), and
// the per-packet RCP* stamp R^-alpha is computed once per tick instead of
// one std::pow per packet.
//
// Fig. 3's pseudo-code, split between net::Link's data path (enqueue and
// dequeue) and sweep_xwi (every T):
//
//   enqueue(DATA p):  minRes = min(p.normalizedResidual, minRes)
//   dequeue(p):       bytesServiced += p.length
//                     DATA p: p.pathPrice += price; p.pathLen += 1
//   every T:          u = bytesServiced / (T * C)
//                     newPrice = max(price + minRes - eta*(1-u)*price, 0)
//                     price = beta*price + (1-beta)*newPrice
//
// An interval that saw no data packet has no minRes observation; only the
// under-utilization term acts then, driving an idle link's price to zero
// as Eq. 10 requires.  DGD and RCP* share the dequeue half, accumulating
// the link's price (DGD) or R^-alpha (RCP*) into DATA packets'
// path_feedback; their sweeps are documented in control_plane.cc.
//
// Determinism contract: slots are assigned in topology link order, the
// sweep visits slots 0..N-1 in that order, and the tick fires on the global
// grid of interval multiples with the FIFO position sim::PeriodicTick
// documents.  tests/control_plane_test.cc checks each sweep against the
// paper's equations; the golden hashes pin whole runs of all three schemes.
//
// Lifetime: the Fabric owns the ControlPlane; the Topology owns the Links.
// Links write into the arrays only while forwarding, so the usual
// declaration order (Simulator, Fabric, Topology) keeps every access valid.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/link.h"
#include "net/topology.h"
#include "sim/periodic_tick.h"
#include "sim/simulator.h"
#include "transport/dgd/dgd_sender.h"
#include "transport/flow.h"
#include "transport/numfabric/config.h"
#include "transport/rcp/rcp_sender.h"

namespace numfabric::transport {

class ControlPlane {
 public:
  struct Params {
    Scheme scheme = Scheme::kNumFabric;
    NumFabricConfig numfabric;
    DgdConfig dgd;
    RcpConfig rcp;
  };

  /// Builds the control plane for the scheme and takes over every link of
  /// `topo`: assigns slot ids in link order, wires the inline hot-path hooks
  /// into the SoA arrays, and arms the single periodic tick.  Returns
  /// nullptr for schemes with no per-link control state (DCTCP, pFabric).
  /// Call once, after the topology is fully built.  Throws
  /// std::invalid_argument on a non-positive update interval and, for
  /// kNumFabric, unless eta is finite and >= 0 and beta is in [0, 1].
  static std::unique_ptr<ControlPlane> attach(sim::Simulator& sim,
                                              const Params& params,
                                              net::Topology& topo);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  std::size_t link_count() const { return links_.size(); }

  /// Synchronized sweeps performed so far.
  std::uint64_t ticks() const { return tick_.ticks(); }

  /// Current per-link prices in slot order — xWI prices (kNumFabric) or DGD
  /// prices (kDgd).  Index with net::Link::control_slot().  The span stays
  /// valid (and its values live) for the ControlPlane's lifetime.
  std::span<const double> snapshot_prices() const { return price_; }

  double price(std::size_t slot) const { return price_[slot]; }
  double fair_share_bps(std::size_t slot) const {
    return fair_share_bps_[slot];
  }

 private:
  ControlPlane(sim::Simulator& sim, const Params& params);

  void attach_links(net::Topology& topo);
  void sweep();
  void sweep_xwi();
  void sweep_dgd();
  void sweep_rcp();

  sim::Simulator& sim_;
  Params params_;
  double interval_seconds_ = 0;

  // Per-link control state in SoA form, indexed by slot == topology link
  // order.  Sized once at attach; never moves afterwards (links hold raw
  // pointers into the arrays via arrays_).
  std::vector<net::Link*> links_;
  std::vector<double> stamp_;                // what the data path stamps
  std::vector<double> min_residual_;         // xWI: min residual observation
  std::vector<std::uint8_t> saw_residual_;   // xWI: observation present
  std::vector<std::uint64_t> bytes_serviced_;
  std::vector<double> price_;                // xWI / DGD price
  std::vector<double> fair_share_bps_;       // RCP* advertised rate

  net::LinkControlArrays arrays_;
  sim::PeriodicTick tick_;
};

}  // namespace numfabric::transport
