// Path enumeration and ECMP selection.
//
// Flows are source-routed: at flow start a path is picked among all
// equal-cost shortest paths (by hop count), either by hash (per-flow ECMP) or
// uniformly at random (how the MPTCP experiment of Fig. 8 maps sub-flows to
// paths).  In a two-tier leaf-spine the only branch point is the spine the
// source leaf picks, so one per-flow hash over the path set is exactly
// per-hop ECMP.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"

namespace numfabric::net {

/// Largest shortest-path set all_shortest_paths() will enumerate.  Beyond
/// this a fabric is pathological for source routing, so enumeration throws
/// instead of silently losing path diversity.
inline constexpr std::size_t kMaxEnumeratedPaths = 4096;

/// All shortest paths (fewest links) from src to dst, in deterministic order
/// (by link creation order) so path selection is reproducible.  The COMPLETE
/// set is returned — there is no silent cap.  Throws std::length_error when
/// the set exceeds kMaxEnumeratedPaths.
std::vector<Path> all_shortest_paths(const Topology& topo, const Node* src,
                                     const Node* dst);

/// Builds the reverse of `path` out of twin links (dst back to src).
Path reverse_path(const Path& path);

/// Deterministic ECMP pick: the index among `count` alternatives that `flow`
/// hashes to.  SplitMix64 mixing plus fixed-point (multiply-shift) range
/// reduction, so sequential flow ids spread evenly and no path set size
/// suffers modulo bias.  Throws on count == 0.
std::size_t ecmp_index(std::size_t count, FlowId flow);

// ---------------------------------------------------------------------------
// Graph routing: path sets as directed-link-id sequences over a FabricGraph.
// A graph link id is also the dense Topology::links() index after
// materialize(), so these paths serve both fidelities without translation.
// ---------------------------------------------------------------------------

/// All shortest paths from graph node `src` to `dst`, in the same
/// deterministic (cable-insertion) order as the Topology overload; the same
/// no-silent-caps contract applies (std::length_error past
/// kMaxEnumeratedPaths).
std::vector<std::vector<int>> all_shortest_paths(const FabricGraph& graph,
                                                 int src, int dst);

/// Yen-style k shortest loop-free paths by hop count, for fabrics without
/// equal-cost path classes (jellyfish).  Deterministic: the first path is the
/// lexicographically smallest (by link id) shortest path and candidates are
/// ordered by (length, link sequence).  Returns fewer than k when the graph
/// has no more loop-free paths.  The no-silent-caps contract applies to the
/// *request*: asking for k > kMaxEnumeratedPaths throws std::length_error
/// instead of quietly clamping.  Throws std::invalid_argument on src == dst
/// or k == 0.
std::vector<std::vector<int>> k_shortest_paths(const FabricGraph& graph,
                                               int src, int dst, std::size_t k);

}  // namespace numfabric::net
