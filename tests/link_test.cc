// Link serialization/propagation timing, the lazy serialization finish, and
// host dispatch tests.
#include <gtest/gtest.h>

#include <cmath>
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
    arrivals.push_back({sim_.now(), packet.size, packet.flow});
  }
  struct Arrival {
    sim::TimeNs at;
    std::uint32_t size;
    FlowId flow;
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

Packet tagged_packet(FlowId flow) {
  Packet p = data_packet(1500);
  p.flow = flow;
  return p;
}

// Two 10 Gb/s links with 1 us of propagation into one sink: a 1500 B packet
// serializes in 1.2 us, so a packet sent at t arrives at t + 2.2 us.
struct TwoLinks {
  sim::Simulator sim;
  SinkHost sink{sim, 0};
  Link l1{sim, "l1", 10e9, sim::micros(1),
          std::make_unique<DropTailQueue>(1'000'000), &sink};
  Link l2{sim, "l2", 10e9, sim::micros(1),
          std::make_unique<DropTailQueue>(1'000'000), &sink};

  std::vector<FlowId> order() const {
    std::vector<FlowId> flows;
    for (const auto& arrival : sink.arrivals) flows.push_back(arrival.flow);
    return flows;
  }
};

// The finish of a packet sent inside an event is pushed only if a later
// send() finds it ahead of the running event.  At exactly tx_end that is
// decided by key: the event E0 that sends A (flow 1) at t=0 reserves the
// finish F with key (1.2 us, rank 1, s_F) and pushes E1 at 1.2 us before or
// after doing so.  E1 sends B (flow 2) on l1, then C (flow 3) on the idle
// l2; both arrive at 3.4 us, in the order their deliveries were pushed.
TEST(LinkTest, SendAtFinishInstantDecidesByKey) {
  const sim::TimeNs tx_end = 1200;
  for (const bool e1_below_finish : {true, false}) {
    TwoLinks net;
    const auto e1 = [&net] {
      net.l1.send(tagged_packet(2));
      net.l2.send(tagged_packet(3));
    };
    net.sim.schedule_at(0, [&] {
      if (e1_below_finish) net.sim.schedule_at(tx_end, e1);
      net.l1.send(tagged_packet(1));
      if (!e1_below_finish) net.sim.schedule_at(tx_end, e1);
    });
    net.sim.run();
    ASSERT_EQ(net.sink.arrivals.size(), 3u);
    EXPECT_EQ(net.sink.arrivals[1].at, 3400);
    EXPECT_EQ(net.sink.arrivals[2].at, 3400);
    if (e1_below_finish) {
      // E1 runs before F: B waits for F, which E1 pushes.  C's delivery is
      // pushed by E1, B's by F, which runs after E1: C arrives first.
      EXPECT_EQ(net.order(), (std::vector<FlowId>{1, 3, 2}));
      EXPECT_EQ(net.sim.events_executed(), 6u);  // E0 E1 F + 3 deliveries
    } else {
      // F ran (in the model) before E1: B starts at once, inside E1, and
      // its delivery is pushed before C's.  F is never an event.
      EXPECT_EQ(net.order(), (std::vector<FlowId>{1, 2, 3}));
      EXPECT_EQ(net.sim.events_executed(), 5u);  // E0 E1 + 3 deliveries
    }
  }
}

// Between runs, every event at or before now() has run: after
// run_until(tx_end) the unpushed finish is behind, so B starts at once and
// its delivery is pushed before C's.
TEST(LinkTest, SendBetweenRunsAfterRunUntilFinishInstant) {
  TwoLinks net;
  net.sim.schedule_at(0, [&net] { net.l1.send(tagged_packet(1)); });
  net.sim.run_until(1200);
  net.l1.send(tagged_packet(2));
  net.l2.send(tagged_packet(3));
  net.sim.run();
  ASSERT_EQ(net.sink.arrivals.size(), 3u);
  EXPECT_EQ(net.sink.arrivals[1].at, 3400);
  EXPECT_EQ(net.sink.arrivals[2].at, 3400);
  EXPECT_EQ(net.order(), (std::vector<FlowId>{1, 2, 3}));
}

// After stop(), the stopping event stands for the running one.  S stops the
// run at tx_end, keyed below or above A's finish F (pushed by E0 before or
// after sending A).  Below: F is still ahead, B waits for it, and C —
// started between runs — is delivered first.  Above: F counts as run and B
// starts at once, ahead of C.
TEST(LinkTest, SendAfterStopAtFinishInstant) {
  const sim::TimeNs tx_end = 1200;
  for (const bool stop_below_finish : {true, false}) {
    TwoLinks net;
    const auto stopper = [&net] { net.sim.stop(); };
    net.sim.schedule_at(0, [&] {
      if (stop_below_finish) net.sim.schedule_at(tx_end, stopper);
      net.l1.send(tagged_packet(1));
      if (!stop_below_finish) net.sim.schedule_at(tx_end, stopper);
    });
    net.sim.run();
    ASSERT_EQ(net.sim.now(), tx_end);
    net.l1.send(tagged_packet(2));
    net.l2.send(tagged_packet(3));
    net.sim.run();
    ASSERT_EQ(net.sink.arrivals.size(), 3u);
    EXPECT_EQ(net.sink.arrivals[1].at, 3400);
    EXPECT_EQ(net.sink.arrivals[2].at, 3400);
    EXPECT_EQ(net.order(), stop_below_finish
                               ? (std::vector<FlowId>{1, 3, 2})
                               : (std::vector<FlowId>{1, 2, 3}));
  }
}

TEST(LinkTest, RejectsInfiniteOrVanishingRateChange) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, 0, std::make_unique<DropTailQueue>(1'000'000),
            &sink);
  EXPECT_THROW(link.set_rate_bps(0.0), std::invalid_argument);
  EXPECT_THROW(link.set_rate_bps(HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(link.set_rate_bps(std::nan("")), std::invalid_argument);
  EXPECT_EQ(link.rate_bps(), 10e9);
}

TEST(LinkTest, RejectsBadConstruction) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  EXPECT_THROW(Link(sim, "l", 0.0, 0, std::make_unique<DropTailQueue>(100), &sink),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, "l", HUGE_VAL, 0,
                    std::make_unique<DropTailQueue>(100), &sink),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, "l", std::nan(""), 0,
                    std::make_unique<DropTailQueue>(100), &sink),
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
