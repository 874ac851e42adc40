// Fabric wiring tests: queue factories, the control plane, flow lifecycle.
#include <gtest/gtest.h>

#include <memory>

#include "net/drop_tail_queue.h"
#include "net/pfabric_queue.h"
#include "net/routing.h"
#include "net/wfq_queue.h"
#include "num/utility.h"
#include "transport/fabric.h"
#include "transport/receiver.h"
#include "transport/sender_base.h"

namespace numfabric::transport {
namespace {

TEST(FabricTest, QueueFactoryMatchesScheme) {
  sim::Simulator sim;
  auto make = [&](Scheme scheme) {
    FabricOptions options;
    options.scheme = scheme;
    Fabric fabric(sim, options);
    return fabric.queue_factory()();
  };
  EXPECT_NE(dynamic_cast<net::WfqQueue*>(make(Scheme::kNumFabric).get()), nullptr);
  EXPECT_NE(dynamic_cast<net::DropTailQueue*>(make(Scheme::kDgd).get()), nullptr);
  EXPECT_NE(dynamic_cast<net::DropTailQueue*>(make(Scheme::kRcpStar).get()), nullptr);
  EXPECT_NE(dynamic_cast<net::DropTailQueue*>(make(Scheme::kDctcp).get()), nullptr);
  EXPECT_NE(dynamic_cast<net::PFabricQueue*>(make(Scheme::kPFabric).get()), nullptr);
}

TEST(FabricTest, AttachesControlPlaneOnlyForPriceSchemes) {
  sim::Simulator sim;
  for (Scheme scheme : {Scheme::kNumFabric, Scheme::kDgd, Scheme::kRcpStar,
                        Scheme::kDctcp, Scheme::kPFabric}) {
    FabricOptions options;
    options.scheme = scheme;
    Fabric fabric(sim, options);
    net::Topology topo(sim);
    net::Host* a = topo.add_host("a");
    net::Host* b = topo.add_host("b");
    topo.connect(a, b, 10e9, sim::micros(1), fabric.queue_factory());
    fabric.attach_agents(topo);
    const bool expects_control = scheme == Scheme::kNumFabric ||
                                 scheme == Scheme::kDgd ||
                                 scheme == Scheme::kRcpStar;
    EXPECT_EQ(fabric.control_plane() != nullptr, expects_control)
        << scheme_name(scheme);
    EXPECT_EQ(topo.links()[0]->has_control_slot(), expects_control)
        << scheme_name(scheme);
    if (expects_control) {
      EXPECT_EQ(fabric.control_plane()->link_count(), topo.links().size());
      EXPECT_EQ(topo.links()[0]->control_slot(), 0u);
      EXPECT_EQ(topo.links()[1]->control_slot(), 1u);
    }
  }
}

struct FlowRig {
  sim::Simulator sim;
  FabricOptions options;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<net::Topology> topo;
  net::Host* a = nullptr;
  net::Host* b = nullptr;
  num::AlphaFairUtility utility{1.0};

  FlowRig() {
    options.scheme = Scheme::kNumFabric;
    fabric = std::make_unique<Fabric>(sim, options);
    topo = std::make_unique<net::Topology>(sim);
    a = topo->add_host("a");
    b = topo->add_host("b");
    topo->connect(a, b, 10e9, sim::micros(1), fabric->queue_factory());
    fabric->attach_agents(*topo);
  }

  FlowSpec spec(std::uint64_t size = 0, sim::TimeNs start = 0) {
    FlowSpec s;
    s.src = a;
    s.dst = b;
    s.size_bytes = size;
    s.start_time = start;
    s.utility = &utility;
    s.path = net::all_shortest_paths(*topo, a, b).front();
    return s;
  }
};

TEST(FabricTest, AssignsFlowIdsAndReversePath) {
  FlowRig rig;
  Flow* flow1 = rig.fabric->add_flow(rig.spec());
  Flow* flow2 = rig.fabric->add_flow(rig.spec());
  EXPECT_NE(flow1->spec().id, flow2->spec().id);
  ASSERT_EQ(flow1->spec().reverse.links.size(), 1u);
  EXPECT_EQ(flow1->spec().reverse.links[0], flow1->spec().path.links[0]->twin());
}

TEST(FabricTest, RejectsDuplicateIdsAndBadSpecs) {
  FlowRig rig;
  FlowSpec spec = rig.spec();
  spec.id = 42;
  rig.fabric->add_flow(spec);
  FlowSpec duplicate = rig.spec();
  duplicate.id = 42;
  EXPECT_THROW(rig.fabric->add_flow(duplicate), std::invalid_argument);
  FlowSpec no_path = rig.spec();
  no_path.path.links.clear();
  EXPECT_THROW(rig.fabric->add_flow(no_path), std::invalid_argument);
  FlowSpec no_host = rig.spec();
  no_host.dst = nullptr;
  EXPECT_THROW(rig.fabric->add_flow(no_host), std::invalid_argument);
}

TEST(FabricTest, DeferredStartTime) {
  FlowRig rig;
  Flow* flow = rig.fabric->add_flow(rig.spec(0, sim::millis(2)));
  rig.sim.run_until(sim::millis(1));
  EXPECT_FALSE(flow->started());
  rig.sim.run_until(sim::millis(3));
  EXPECT_TRUE(flow->started());
}

TEST(FabricTest, CompletionCallbackAndUnregistration) {
  FlowRig rig;
  int completions = 0;
  rig.fabric->set_on_complete([&](Flow& flow) {
    ++completions;
    EXPECT_TRUE(flow.completed());
  });
  Flow* flow = rig.fabric->add_flow(rig.spec(100'000));
  rig.sim.run_until(sim::millis(10));
  ASSERT_TRUE(flow->completed());
  EXPECT_EQ(completions, 1);
  EXPECT_GT(flow->fct(), 0);
}

TEST(FabricTest, SwiftSenderRequiresUtility) {
  FlowRig rig;
  FlowSpec spec = rig.spec();
  spec.utility = nullptr;
  EXPECT_THROW(rig.fabric->add_flow(spec), std::invalid_argument);
}

TEST(FabricTest, SchemeNames) {
  EXPECT_STREQ(scheme_name(Scheme::kNumFabric), "NUMFabric");
  EXPECT_STREQ(scheme_name(Scheme::kDgd), "DGD");
  EXPECT_STREQ(scheme_name(Scheme::kRcpStar), "RCP*");
  EXPECT_STREQ(scheme_name(Scheme::kDctcp), "DCTCP");
  EXPECT_STREQ(scheme_name(Scheme::kPFabric), "pFabric");
}

}  // namespace
}  // namespace numfabric::transport
