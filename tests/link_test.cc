// Link serialization/propagation timing and host dispatch tests.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/drop_tail_queue.h"
#include "net/link.h"
#include "net/node.h"
#include "sim/simulator.h"

namespace numfabric::net {
namespace {

/// Records arrival times of packets delivered to it.
class SinkHost : public Host {
 public:
  SinkHost(sim::Simulator& sim, NodeId id) : Host(id, "sink"), sim_(sim) {}
  void receive(Packet&& packet) override {
    arrivals.push_back({sim_.now(), packet.size});
  }
  struct Arrival {
    sim::TimeNs at;
    std::uint32_t size;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Simulator& sim_;
};

Packet data_packet(std::uint32_t size) {
  Packet p;
  p.type = PacketType::kData;
  p.size = size;
  return p;
}

TEST(LinkTest, SerializationPlusPropagation) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, sim::micros(2),
            std::make_unique<DropTailQueue>(1'000'000), &sink);
  link.send(data_packet(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1.2 us serialization + 2 us propagation.
  EXPECT_EQ(sink.arrivals[0].at, 3200);
}

TEST(LinkTest, BackToBackPacketsSpacedBySerialization) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, sim::micros(2),
            std::make_unique<DropTailQueue>(1'000'000), &sink);
  for (int i = 0; i < 3; ++i) link.send(data_packet(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[1].at - sink.arrivals[0].at, 1200);
  EXPECT_EQ(sink.arrivals[2].at - sink.arrivals[1].at, 1200);
}

TEST(LinkTest, CountsBytesSent) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, 0, std::make_unique<DropTailQueue>(1'000'000), &sink);
  link.send(data_packet(1500));
  link.send(data_packet(500));
  sim.run();
  EXPECT_EQ(link.bytes_sent(), 2000u);
}

TEST(LinkTest, RateChangeAppliesToNextPacket) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, 0, std::make_unique<DropTailQueue>(1'000'000), &sink);
  link.send(data_packet(1500));
  link.set_rate_bps(20e9);
  link.send(data_packet(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].at, 1200);       // first at the old rate
  EXPECT_EQ(sink.arrivals[1].at, 1200 + 600);  // second at 20 Gbps
}

TEST(LinkTest, RejectsBadConstruction) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  EXPECT_THROW(Link(sim, "l", 0.0, 0, std::make_unique<DropTailQueue>(100), &sink),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, "l", 1e9, 0, nullptr, &sink), std::invalid_argument);
  EXPECT_THROW(Link(sim, "l", 1e9, 0, std::make_unique<DropTailQueue>(100), nullptr),
               std::invalid_argument);
}

TEST(HostTest, DispatchesByFlowIdAndCountsStrays) {
  sim::Simulator sim;
  Host host(0, "h");
  int handled = 0;
  host.register_flow(7, [&](Packet&&) { ++handled; });
  Packet p = data_packet(100);
  p.flow = 7;
  host.receive(std::move(p));
  Packet stray = data_packet(100);
  stray.flow = 8;
  host.receive(std::move(stray));
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(host.stray_packets(), 1u);
  EXPECT_THROW(host.register_flow(7, [](Packet&&) {}), std::logic_error);
  host.unregister_flow(7);
  host.register_flow(7, [](Packet&&) {});  // re-registering after removal is fine
}

}  // namespace
}  // namespace numfabric::net
