// Arithmetic leaf-spine fabric for the flow-fluid engine.
//
// The packet substrate builds a real net::Topology — switch objects, queues,
// per-port state — which is exactly the memory the 10^5-10^6 flow regime
// cannot afford.  A VirtualLeafSpine is the same leaf-spine expressed as pure
// index arithmetic: a link is an integer, a path is at most four integers and
// the whole fabric is one capacity vector for CsrProblem::compile.  Layout:
//
//   [0, H)              host h -> leaf(h) uplink        (host_rate)
//   [H, 2H)             leaf(h) -> host h downlink      (host_rate)
//   [2H, 2H + L*S)      leaf l -> spine s  (l*S + s)    (leaf_spine_rate)
//   [2H + L*S, 2H+2LS)  spine s -> leaf l  (l*S + s)    (leaf_spine_rate)
//
// with H = hosts, L = leaves, S = spines and leaf(h) = h / hosts_per_leaf.
// Cross-leaf paths pick their spine by hashing a caller-supplied tiebreak
// (the flow id), the virtual analogue of per-flow ECMP — deterministic and
// seed-free.  Any other fabric (jellyfish) stays a net::FabricGraph that is
// never materialized: exp::pair_paths routes it, exp::graph_capacities sizes
// it.
#pragma once

#include <cstdint>
#include <vector>

namespace numfabric::flowsim {

struct VirtualLeafSpine {
  int hosts_per_leaf = 1;
  int leaves = 1;
  int spines = 1;
  double host_rate = 0.0;        // rate units (Mbps)
  double leaf_spine_rate = 0.0;  // rate units (Mbps)

  int hosts() const { return hosts_per_leaf * leaves; }
  int links() const { return 2 * hosts() + 2 * leaves * spines; }
  int leaf_of(int host) const { return host / hosts_per_leaf; }

  /// Per-link capacities in layout order (CsrProblem input).
  std::vector<double> capacities() const;

  /// Link indices from `src` to `dst` (distinct hosts).  Same-leaf pairs use
  /// {uplink, downlink}; cross-leaf pairs add the leaf->spine->leaf hop with
  /// the spine chosen by hashing `tiebreak`.
  std::vector<int> path(int src, int dst, std::uint64_t tiebreak) const;
};

}  // namespace numfabric::flowsim
