// Spec test for transport::ControlPlane: each scheme's per-link update
// checked against the paper's equations, evaluated by hand.
//
//   xWI  (Fig. 3, Eqs. 10-11): newPrice = max(p + minRes - eta (1-u) p, 0)
//                              p <- beta p + (1-beta) newPrice
//   DGD  (Eq. 14):             p <- [ p + a (y - C) + b q ]_+
//   RCP* (Eq. 15):             R <- R (1 + (T/d) (a (C - y) - b q/d) / C)
//
// Packets go through net::Link::send on links wired to a ControlPlane, so
// the data-path half (residual tracking, byte counting, header stamps) runs
// with the sweep.  Expected values are constants or arithmetic written
// here, never read back from another ControlPlane run.  Gains are Table 2's
// (RCP*: the stable classic gains RcpConfig documents), set explicitly so
// the expectations do not move with the defaults.  The grid the tick fires
// on is PeriodicTickTest's subject; one case here checks that a
// ControlPlane attached off the grid still updates on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/drop_tail_queue.h"
#include "net/link.h"
#include "net/node.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "transport/control_plane.h"

namespace numfabric::transport {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

net::Packet data_packet(double residual, std::uint32_t size = 1500) {
  net::Packet p;
  p.flow = 1;
  p.type = net::PacketType::kData;
  p.size = size;
  p.normalized_residual = residual;
  return p;
}

ControlPlane::Params xwi_params(double initial_price) {
  ControlPlane::Params params;
  params.scheme = Scheme::kNumFabric;
  params.numfabric.price_update_interval = sim::micros(30);
  params.numfabric.eta = 5.0;
  params.numfabric.beta = 0.5;
  params.numfabric.initial_price = initial_price;
  return params;
}

ControlPlane::Params dgd_params(double initial_price) {
  ControlPlane::Params params;
  params.scheme = Scheme::kDgd;
  params.dgd.price_update_interval = sim::micros(16);
  params.dgd.a = 4e-9;     // per Mbps
  params.dgd.b = 1.2e-10;  // per byte
  params.dgd.initial_price = initial_price;
  return params;
}

ControlPlane::Params rcp_params(double alpha) {
  ControlPlane::Params params;
  params.scheme = Scheme::kRcpStar;
  params.rcp.rate_update_interval = sim::micros(16);
  params.rcp.avg_rtt = sim::micros(16);
  params.rcp.a = 0.4;
  params.rcp.b = 0.226;
  params.rcp.alpha = alpha;
  return params;
}

/// Two hosts joined by one cable of capacity `rate_bps`; every case drives
/// the a -> b link.  The ControlPlane takes over both directions.
struct Rig {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Link* link = nullptr;
  net::Host* dst = nullptr;
  std::unique_ptr<ControlPlane> plane;

  explicit Rig(const ControlPlane::Params& params, double rate_bps = 10e9) {
    net::Host* src = topo.add_host("a");
    dst = topo.add_host("b");
    topo.connect(src, dst, rate_bps, sim::micros(1), [] {
      return std::make_unique<net::DropTailQueue>(1'000'000);
    });
    link = topo.links()[0].get();
    plane = ControlPlane::attach(sim, params, topo);
  }

  void send_at(sim::TimeNs at, const net::Packet& packet) {
    sim.schedule_at(at, [this, packet] { link->send(net::Packet(packet)); });
  }

  double price() const { return plane->price(link->control_slot()); }
  double fair_share_bps() const {
    return plane->fair_share_bps(link->control_slot());
  }
};

/// Hosts a and b joined through switch s, a -> s at `first_bps` and s -> b at
/// `second_bps`; packets follow `path` over both links.
struct TwoHopRig {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Path path;
  net::Host* dst = nullptr;
  std::unique_ptr<ControlPlane> plane;

  TwoHopRig(const ControlPlane::Params& params, double first_bps,
            double second_bps) {
    net::Host* src = topo.add_host("a");
    net::Switch* hop = topo.add_switch("s");
    dst = topo.add_host("b");
    const auto queue = [] {
      return std::make_unique<net::DropTailQueue>(1'000'000);
    };
    path.links = {
        topo.connect(src, hop, first_bps, sim::micros(1), queue).first,
        topo.connect(hop, dst, second_bps, sim::micros(1), queue).first};
    plane = ControlPlane::attach(sim, params, topo);
  }

  void send_at(sim::TimeNs at, net::Packet packet) {
    packet.path = &path;
    sim.schedule_at(at, [this, packet] {
      path.links[0]->send(net::Packet(packet));
    });
  }
};

// --- xWI --------------------------------------------------------------------

TEST(ControlPlaneTest, XwiIdleLinkPriceHalvesEachTick) {
  // No traffic: u = 0 and no residual, so newPrice = max(p - 5p, 0) = 0 and
  // each tick leaves 0.5 p.  Ten ticks from 1: 1/1024.
  Rig rig(xwi_params(1.0));
  rig.sim.run_until(sim::micros(30 * 10));
  EXPECT_EQ(rig.plane->ticks(), 10u);
  EXPECT_DOUBLE_EQ(rig.price(), 1.0 / 1024);
}

TEST(ControlPlaneTest, XwiPositiveResidualRaisesPrice) {
  // A 1500 B DATA packet with residual +0.1 every microsecond offers
  // 12 Gbps to a 10 Gbps link, so u = 1 and each tick gives
  // p <- 0.5 p + 0.5 (p + 0.1) = p + 0.05.
  Rig rig(xwi_params(0.1));
  for (int i = 0; i < 90; ++i) rig.send_at(sim::micros(i), data_packet(0.1));
  rig.sim.run_until(sim::micros(90));
  EXPECT_EQ(rig.plane->ticks(), 3u);
  EXPECT_NEAR(rig.price(), 0.1 + 3 * 0.05, 1e-12);
}

TEST(ControlPlaneTest, XwiTakesTheMinimumResidual) {
  // Residuals 0.5, -0.3 and 0.1 in one interval, plus a 60 KB packet
  // (residual 0.9) whose 480 kbit exceed the 300 kbit the link carries in
  // 30 us, so u = 1 and minRes = -0.3:
  // p <- 0.5 * 0.2 + 0.5 * max(0.2 - 0.3, 0) = 0.1.
  Rig rig(xwi_params(0.2));
  for (const double residual : {0.5, -0.3, 0.1}) {
    rig.send_at(sim::micros(1), data_packet(residual));
  }
  rig.send_at(sim::micros(1), data_packet(0.9, 60'000));
  rig.sim.run_until(sim::micros(30));
  EXPECT_DOUBLE_EQ(rig.price(), 0.1);
}

TEST(ControlPlaneTest, XwiIgnoresNonFiniteResiduals) {
  // +inf, -inf and NaN carry no estimate, so minRes = 0; the 60 KB packet
  // keeps u = 1.  p <- 0.5 p + 0.5 max(p + 0 - 0, 0) = p.
  Rig rig(xwi_params(0.2));
  rig.send_at(sim::micros(1), data_packet(kInf));
  rig.send_at(sim::micros(1), data_packet(-kInf));
  rig.send_at(sim::micros(1),
              data_packet(std::numeric_limits<double>::quiet_NaN(), 60'000));
  rig.sim.run_until(sim::micros(30));
  EXPECT_DOUBLE_EQ(rig.price(), 0.2);
}

TEST(ControlPlaneTest, XwiBacklogCountsAsFullUtilization) {
  // Forty 1500 B DATA packets (residual 0.05) at 1 us on a 10 Mbps link:
  // each takes 1.2 ms to serialize, so after the first dequeue no bytes are
  // serviced before 300 us, but the queue stays backlogged and every tick
  // sees u = 1.  Tick 1 has minRes = 0.05:
  //   p = 0.5 * 0.01 + 0.5 * (0.01 + 0.05) = 0.035.
  // Ticks 2..10 have no residual and u = 1, which leaves p unchanged.  Byte
  // counting alone would give u = 0 there and halve p nine times.
  Rig rig(xwi_params(0.01), /*rate_bps=*/10e6);
  for (int i = 0; i < 40; ++i) rig.send_at(sim::micros(1), data_packet(0.05));
  rig.sim.run_until(sim::micros(300));
  ASSERT_FALSE(rig.link->queue().empty());
  EXPECT_NEAR(rig.price(), 0.035, 1e-12);
}

TEST(ControlPlaneTest, XwiStampsPriceAndPathLenOnDataOnly) {
  // The DATA packet at 5 us carries the initial price 0.01 and one hop.
  // Interval [0, 30) serviced that one packet: u = 12 kbit / 300 kbit = 0.04
  // and minRes = 0.1, so
  //   newPrice = 0.01 + 0.1 - 5 * 0.96 * 0.01 = 0.062,
  //   p = 0.5 * 0.01 + 0.5 * 0.062 = 0.036,
  // which the DATA packet at 40 us carries.  The ACK is never stamped.
  Rig rig(xwi_params(0.01));
  std::vector<std::pair<double, std::uint32_t>> seen;  // path_price, path_len
  rig.dst->register_flow(1, [&seen](net::Packet&& p) {
    seen.emplace_back(p.path_price, p.path_len);
  });
  net::Packet ack;
  ack.flow = 1;
  ack.type = net::PacketType::kAck;
  ack.size = 40;
  rig.send_at(sim::micros(5), data_packet(0.1));
  rig.send_at(sim::micros(40), data_packet(0.1));
  rig.send_at(sim::micros(40), ack);
  rig.sim.run_until(sim::micros(60));

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, 0.01);
  EXPECT_EQ(seen[0].second, 1u);
  EXPECT_NEAR(seen[1].first, 0.036, 1e-12);
  EXPECT_EQ(seen[1].second, 1u);
  EXPECT_EQ(seen[2].first, 0.0);
  EXPECT_EQ(seen[2].second, 0u);
}

TEST(ControlPlaneTest, XwiPathPriceSumsEveryHop) {
  // A 10 Gbps hop then a 1 Gbps hop, both from price 0.01.  The DATA packet
  // at 5 us crosses both in [0, 30) with residual 0.1 and carries 0.01 + 0.01
  // over two hops.  Its 12 kbit give u = 0.04 on the first hop and 0.4 on
  // the second, so the tick at 30 us sets
  //   hop 1: p = 0.5 * 0.01 + 0.5 * (0.01 + 0.1 - 5 * 0.96 * 0.01) = 0.036,
  //   hop 2: p = 0.5 * 0.01 + 0.5 * (0.01 + 0.1 - 5 * 0.6 * 0.01) = 0.045,
  // and the packet at 40 us carries their sum.
  TwoHopRig rig(xwi_params(0.01), 10e9, 1e9);
  std::vector<std::pair<double, std::uint32_t>> seen;  // path_price, path_len
  rig.dst->register_flow(1, [&seen](net::Packet&& p) {
    seen.emplace_back(p.path_price, p.path_len);
  });
  rig.send_at(sim::micros(5), data_packet(0.1));
  rig.send_at(sim::micros(40), data_packet(0.1));
  rig.sim.run_until(sim::micros(60));

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0].first, 0.01 + 0.01);
  EXPECT_EQ(seen[0].second, 2u);
  EXPECT_NEAR(seen[1].first, 0.036 + 0.045, 1e-12);
  EXPECT_EQ(seen[1].second, 2u);
}

// The tick fires on the global grid, so links attached between two grid
// points update together with links attached earlier (Fig. 3's synchronized
// updates): attached at 7 us, the first update lands at 30 us, not 37 us.
TEST(ControlPlaneTest, AttachedOffGridUpdatesOnTheSynchronizedGrid) {
  sim::Simulator sim;
  net::Topology topo{sim};
  topo.connect(topo.add_host("a"), topo.add_host("b"), 10e9, sim::micros(1),
               [] { return std::make_unique<net::DropTailQueue>(1'000'000); });
  sim.run_until(sim::micros(7));
  const auto plane = ControlPlane::attach(sim, xwi_params(1.0), topo);
  const std::uint32_t slot = topo.links()[0]->control_slot();

  sim.run_until(sim::micros(30) - 1);
  EXPECT_EQ(plane->ticks(), 0u);
  sim.run_until(sim::micros(30));
  EXPECT_EQ(plane->ticks(), 1u);
  EXPECT_DOUBLE_EQ(plane->price(slot), 0.5);  // one idle xWI tick from 1
  sim.run_until(sim::micros(60) - 1);
  EXPECT_EQ(plane->ticks(), 1u);
  sim.run_until(sim::micros(60));
  EXPECT_EQ(plane->ticks(), 2u);
}

// --- DGD --------------------------------------------------------------------

TEST(ControlPlaneTest, DgdPriceTakesOneGradientStep) {
  // 4000 B serviced in one 16 us interval: y = 32 kbit / 16 us = 2000 Mbps
  // on a C = 10000 Mbps link, queue empty at the tick:
  //   p <- [1e-4 + 4e-9 (2000 - 10000) + 1.2e-10 * 0]_+ = 1e-4 - 4e-9 * 8000.
  // The packet itself carries the price at its dequeue, 1e-4, in
  // path_feedback.
  Rig rig(dgd_params(1e-4));
  std::vector<double> feedback;
  rig.dst->register_flow(1, [&feedback](net::Packet&& p) {
    feedback.push_back(p.path_feedback);
  });
  rig.send_at(sim::micros(1), data_packet(0.0, 4000));
  rig.sim.run_until(sim::micros(16));
  EXPECT_NEAR(rig.price(), 1e-4 - 4e-9 * 8000, 1e-15);
  ASSERT_EQ(feedback.size(), 1u);
  EXPECT_EQ(feedback[0], 1e-4);
}

TEST(ControlPlaneTest, DgdBacklogAddsTheQueueTerm) {
  // Three 10 KB packets at 1 us, 8 us each to serialize: two are dequeued
  // before the 16 us tick (y = 160 kbit / 16 us = 10000 Mbps = C) and one
  // waits in the queue (q = 10000 B), so only the queue term acts:
  //   p <- [1e-4 + 4e-9 (C - C) + 1.2e-10 * 10000]_+.
  Rig rig(dgd_params(1e-4));
  for (int i = 0; i < 3; ++i) {
    rig.send_at(sim::micros(1), data_packet(0.0, 10'000));
  }
  rig.sim.run_until(sim::micros(16));
  EXPECT_NEAR(rig.price(), 1e-4 + 1.2e-10 * 10'000, 1e-15);
}

TEST(ControlPlaneTest, DgdPriceIsClampedAtZero) {
  // Idle: 1e-9 + 4e-9 (0 - 10000) < 0, so the price clamps to 0 on the
  // first tick and stays there.
  Rig rig(dgd_params(1e-9));
  rig.sim.run_until(sim::micros(16));
  EXPECT_EQ(rig.price(), 0.0);
  rig.sim.run_until(sim::micros(16 * 5));
  EXPECT_EQ(rig.price(), 0.0);
}

// --- RCP* -------------------------------------------------------------------

TEST(ControlPlaneTest, RcpIdleLinkRaisesRPastCapacityUpToTheCap) {
  // Idle (y = 0, q = 0, d = T): the raw step a (C - 0) / C = 0.4 is clamped
  // to +0.3, so R starts at C and grows x1.3 per tick — past C at once, as
  // Eq. 16's composition needs — until it reaches the 1000 C cap
  // (1.3^27 > 1000).
  const double capacity = 10e9;
  Rig rig(rcp_params(1.0), capacity);
  EXPECT_EQ(rig.fair_share_bps(), capacity);
  rig.sim.run_until(sim::micros(16));
  EXPECT_DOUBLE_EQ(rig.fair_share_bps(), capacity * (1.0 + 0.3));
  rig.sim.run_until(sim::micros(16 * 40));
  EXPECT_EQ(rig.fair_share_bps(), 1e3 * capacity);
}

TEST(ControlPlaneTest, RcpBacklogCutsRByAtMostThirtyPercentDownToTheFloor) {
  // Table 2's gains (a = 3.6, b = 1.8).  Three 10 KB packets at 1 us, then
  // one every 8 us, on a link that serializes one in 8 us: every interval
  // dequeues two (y = C) and every tick finds two queued (q = 160 kbit, so
  // q/C = T and d = 2T).  The raw step is
  //   (T/d) (a (C - C) - b q/d) / C = -1.8 * T * T / (2T)^2 = -0.45,
  // clamped to -0.3: R falls x0.7 per tick until it reaches the 1e-4 C
  // floor (0.7^25 > 1e-4 > 0.7^26).
  const double capacity = 10e9;
  ControlPlane::Params params = rcp_params(1.0);
  params.rcp.a = 3.6;
  params.rcp.b = 1.8;
  Rig rig(params, capacity);
  for (int i = 0; i < 3; ++i) {
    rig.send_at(sim::micros(1), data_packet(0.0, 10'000));
  }
  for (int i = 1; i <= 80; ++i) {
    rig.send_at(sim::micros(1 + 8 * i), data_packet(0.0, 10'000));
  }
  rig.sim.run_until(sim::micros(16));
  EXPECT_DOUBLE_EQ(rig.fair_share_bps(), capacity * 0.7);
  rig.sim.run_until(sim::micros(16 * 25));
  double expected = capacity;
  for (int tick = 0; tick < 25; ++tick) expected *= 0.7;
  EXPECT_NEAR(rig.fair_share_bps(), expected, expected * 1e-12);
  rig.sim.run_until(sim::micros(16 * 40));
  EXPECT_EQ(rig.plane->ticks(), 40u);
  EXPECT_EQ(rig.fair_share_bps(), 1e-4 * capacity);
}

TEST(ControlPlaneTest, RcpStepUsesQueueingDelayInD) {
  // Three 10 KB packets at 1 us, 8 us each to serialize: two are dequeued
  // before the 16 us tick (y = 160 kbit / 16 us = C) and one is queued
  // (q = 80 kbit).  d = 16 us + q / C = 24 us, so the step is
  //   (T/d) (a (C - C) - b q/d) / C,
  // unclamped (about -0.05).
  const double capacity = 10e9;
  Rig rig(rcp_params(1.0), capacity);
  for (int i = 0; i < 3; ++i) {
    rig.send_at(sim::micros(1), data_packet(0.0, 10'000));
  }
  rig.sim.run_until(sim::micros(16));
  const double t = 16e-6;
  const double y = capacity;
  const double q_bits = 80'000;
  const double d = 16e-6 + q_bits / capacity;
  const double gain =
      (t / d) * (0.4 * (capacity - y) - 0.226 * q_bits / d) / capacity;
  ASSERT_GT(gain, -0.3);
  EXPECT_NEAR(rig.fair_share_bps(), capacity * (1.0 + gain), 1e-3);
}

TEST(ControlPlaneTest, RcpStampsRToTheMinusAlphaOncePerTick) {
  // alpha = 2.  The 10 KB packet at 1 us carries C^-2 with C = 10000 Mbps.
  // It is the interval's only traffic (y = 80 kbit / 16 us = C/2), so the
  // tick takes an unclamped step of a (C - C/2) / C = 0.2 and R = 12000 Mbps;
  // the packet at 20 us carries 12000^-2.
  Rig rig(rcp_params(2.0));
  std::vector<double> feedback;
  rig.dst->register_flow(1, [&feedback](net::Packet&& p) {
    feedback.push_back(p.path_feedback);
  });
  rig.send_at(sim::micros(1), data_packet(0.0, 10'000));
  rig.send_at(sim::micros(20), data_packet(0.0));
  rig.sim.run_until(sim::micros(30));
  ASSERT_EQ(feedback.size(), 2u);
  EXPECT_DOUBLE_EQ(feedback[0], 1.0 / (10'000.0 * 10'000.0));
  const double expected = 1.0 / (12'000.0 * 12'000.0);
  EXPECT_NEAR(feedback[1], expected, expected * 1e-12);
}

TEST(ControlPlaneTest, RcpFeedbackSumsRToTheMinusAlphaOverThePath) {
  // Eq. 16 composes a path's rate from sum_l R_l^-alpha; alpha = 1 here.
  // Hops of C = 10000 and 4000 Mbps start at R = C, so the 10 KB packet at
  // 1 us carries 1/10000 + 1/4000.  It is each hop's only traffic before the
  // 16 us tick (y = 80 kbit / 16 us = 5000 Mbps), which takes unclamped
  // steps of a (C - y) / C:
  //   hop 1: 0.4 * 5000 / 10000 = +0.2, R = 12000;
  //   hop 2: 0.4 * -1000 / 4000 = -0.1, R = 3600.
  // The packet at 20 us waits at the switch until the second hop frees at
  // 30 us, before the 32 us tick, and carries 1/12000 + 1/3600.
  TwoHopRig rig(rcp_params(1.0), 10e9, 4e9);
  std::vector<double> feedback;
  rig.dst->register_flow(1, [&feedback](net::Packet&& p) {
    feedback.push_back(p.path_feedback);
  });
  rig.send_at(sim::micros(1), data_packet(0.0, 10'000));
  rig.send_at(sim::micros(20), data_packet(0.0));
  rig.sim.run_until(sim::micros(40));
  ASSERT_EQ(feedback.size(), 2u);
  EXPECT_DOUBLE_EQ(feedback[0], 1.0 / 10'000 + 1.0 / 4'000);
  const double expected = 1.0 / 12'000 + 1.0 / 3'600;
  EXPECT_NEAR(feedback[1], expected, expected * 1e-12);
}

// --- parameters -------------------------------------------------------------

TEST(ControlPlaneTest, RejectsOutOfRangeXwiGains) {
  // Outside eta >= 0 and beta in [0, 1] an idle link's price grows or flips
  // sign every tick instead of decaying to 0 (Eq. 10), so attach refuses
  // the gains and names the bad one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto attach_error = [](double eta, double beta) -> std::string {
    ControlPlane::Params params = xwi_params(0.01);
    params.numfabric.eta = eta;
    params.numfabric.beta = beta;
    try {
      Rig rig(params);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  for (const double beta : {-0.5, 1.5, nan}) {
    EXPECT_NE(attach_error(5.0, beta).find("beta"), std::string::npos)
        << "beta=" << beta;
  }
  for (const double eta : {-1.0, kInf}) {
    EXPECT_NE(attach_error(eta, 0.5).find("eta"), std::string::npos)
        << "eta=" << eta;
  }
  // The range ends, Table 2's gains and the sweeps' eta = 2..10 stay valid.
  for (const double beta : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(attach_error(5.0, beta), "") << "beta=" << beta;
  }
  for (const double eta : {0.0, 2.0, 10.0}) {
    EXPECT_EQ(attach_error(eta, 0.5), "") << "eta=" << eta;
  }
}

}  // namespace
}  // namespace numfabric::transport
