// The simulated packet.
//
// One value type carries the union of all header fields used by the schemes
// under study (NUMFabric §5, DGD §3, RCP* §6, DCTCP, pFabric).  In a real
// deployment each scheme defines its own transport option; in the simulator
// a flat struct keeps the hot path allocation-free and the code simple.
// Fields not used by the active scheme stay at their defaults.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace numfabric::net {

class Link;

/// Identifies a flow (for multipath objectives, a sub-flow).
using FlowId = std::uint64_t;

/// A source route: the ordered list of links a packet traverses from the
/// sender's NIC to the receiver.  Flows own their Path objects; packets point
/// at them.  Source routing stands in for per-hop ECMP: per-hop hashing also
/// keeps a flow on one path, and a leaf-spine has a single branch point.
struct Path {
  std::vector<Link*> links;

  std::size_t hops() const { return links.size(); }
};

enum class PacketType : std::uint8_t {
  kData,  // carries payload bytes
  kAck,   // control: acknowledgment with echoed feedback
};

// Fields are laid out widest-first (8-byte, then 4-byte, then 1-byte) so the
// struct packs into exactly two cache lines (128 bytes, vs 168 naturally
// ordered) — packets are copied into and out of queue pools and in-flight
// rings on every hop, so the copy width is hot-path cost.
struct Packet {
  FlowId flow = 0;
  std::uint64_t seq = 0;       // data: offset of first payload byte
  const Path* path = nullptr;  // route of THIS packet (ACKs use reverse path)

  // --- NUMFabric header fields (§5) ------------------------------------
  // L(p)/w: the packet length divided by the flow's Swift weight.  Written
  // by the sender, consumed by WFQ switches (Eq. 13).  Zero on control
  // packets.
  double virtual_packet_len = 0.0;
  // Sum of link prices accumulated along the path (xWI).
  double path_price = 0.0;
  // (U'(x) - path price) / path length, written by the sender; switches take
  // the min over flows (Eq. 9 / Fig. 3).
  double normalized_residual = 0.0;

  // --- DGD / RCP* shared accumulator ------------------------------------
  // DGD: sum of link prices.  RCP*: sum of R_l^-alpha (Eq. 16).
  double path_feedback = 0.0;

  // --- pFabric -----------------------------------------------------------
  // Remaining flow size at send time; smaller = more urgent.
  double priority = 0.0;

  // --- ACK-echoed feedback -------------------------------------------------
  std::uint64_t ack_seq = 0;               // cumulative bytes received in order
  sim::TimeNs echo_inter_packet_time = 0;  // receiver-measured gap (Swift)
  double echo_path_price = 0.0;
  double echo_path_feedback = 0.0;

  sim::TimeNs sent_time = 0;  // stamped by the sender (RTT estimation)

  std::uint32_t size = 0;  // bytes on the wire (payload + header)
  std::uint32_t hop = 0;   // index into path->links of the link last used
  // Number of links traversed (|L(i)|).
  std::uint32_t path_len = 0;
  std::uint32_t acked_bytes = 0;  // bytes covered by the acked packet
  std::uint32_t echo_path_len = 0;

  PacketType type = PacketType::kData;

  // --- ECN (DCTCP) --------------------------------------------------------
  bool ecn_capable = false;
  bool ecn_marked = false;
  bool echo_ecn = false;

  bool is_data() const { return type == PacketType::kData; }
};

/// Default wire sizes used throughout the reproduction.
inline constexpr std::uint32_t kDataPacketBytes = 1500;
inline constexpr std::uint32_t kAckPacketBytes = 40;
inline constexpr std::uint32_t kMaxPayloadBytes = kDataPacketBytes - 40;

}  // namespace numfabric::net
