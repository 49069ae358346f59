// Network-level tests: construction, end-to-end delivery, conservation
// invariants across router counters.
#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "noc/simulator.hpp"

namespace nocs::noc {
namespace {

NetworkParams small_params() {
  NetworkParams p;
  p.width = 4;
  p.height = 4;
  return p;
}

TEST(Network, ConstructionWiresAllNodes) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  EXPECT_EQ(net.num_nodes(), 16);
  EXPECT_EQ(net.now(), 0u);
  EXPECT_TRUE(net.drained());
  for (NodeId id = 0; id < 16; ++id) {
    EXPECT_EQ(net.router(id).id(), id);
    EXPECT_EQ(net.ni(id).id(), id);
  }
}

TEST(Network, InteriorTableOneNodeBlockFitsItsBudget) {
  // An interior Table-1 node's block: the router and its state block (the
  // 20 input-VC rings among it), the NI, five 192-byte arrival logs (the
  // injection log and four links; 8-byte slots) and one 448-byte ejection
  // pipe (24-byte flit slots).  It was 5,952 B when router inputs were
  // flit pipes, and 11,520 B with 48-byte flits.
  const NetworkParams p;
  const XyRouting xy;
  Network net(p, &xy);
  ASSERT_EQ(net.topology().num_ports(5), 5);
  EXPECT_EQ(ArrivalLog::block_bytes(1, 16), 192u);
  EXPECT_EQ(Pipe<Flit>::block_bytes(1, 16), 448u);
  EXPECT_EQ(net.node_block_bytes(5), 4672u);
  EXPECT_LE(net.node_block_bytes(5), 4700u);
}

TEST(Network, SinglePacketDelivery) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  net.ni(0).send_packet(net.now(), 15);
  for (int i = 0; i < 100 && !net.drained(); ++i) net.tick();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.ni(15).total_ejected_flits(),
            static_cast<std::uint64_t>(p.packet_length));
}

TEST(Network, SendPacketRejectsLengthsPastTheFlitIndex) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  EXPECT_NE(net.ni(0).send_packet(0, 1, 0, kMaxPacketLength), 0u);
  EXPECT_DEATH(net.ni(0).send_packet(0, 1, 0, kMaxPacketLength + 1),
               "precondition");
}

TEST(Network, PacketLatencyIsDeterministic) {
  // Two identical runs produce identical ejection cycles.
  auto run_once = [] {
    const NetworkParams p = small_params();
    XyRouting xy;
    Network net(p, &xy);
    net.ni(0).send_packet(net.now(), 10);
    Cycle done = 0;
    for (int i = 0; i < 200; ++i) {
      net.tick();
      if (net.ni(10).total_ejected_flits() == 5 && done == 0) done = net.now();
    }
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
  EXPECT_GT(run_once(), 0u);
}

TEST(Network, AllPairsDelivery) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  // One packet for every ordered pair, injected over time.
  int expected_per_node[16] = {};
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s == d) continue;
      net.ni(s).send_packet(net.now(), d);
      ++expected_per_node[d];
    }
  }
  for (int i = 0; i < 20000 && !net.drained(); ++i) net.tick();
  EXPECT_TRUE(net.drained());
  for (NodeId d = 0; d < 16; ++d)
    EXPECT_EQ(net.ni(d).total_ejected_flits(),
              static_cast<std::uint64_t>(expected_per_node[d]) *
                  static_cast<std::uint64_t>(p.packet_length))
        << "node " << d;
}

TEST(Network, CounterConservation) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  std::vector<NodeId> all = net.params().shape().all_nodes();
  net.set_endpoints(all, make_traffic("uniform", 16));
  net.set_injection_rate(0.2);
  net.set_seed(99);
  net.run(3000);
  net.set_injection_rate(0.0);
  for (int i = 0; i < 20000 && !net.drained(); ++i) net.tick();
  ASSERT_TRUE(net.drained());

  const RouterCounters c = net.total_counters();
  // Every buffered flit was eventually read and crossed the crossbar.
  EXPECT_EQ(c.buffer_writes, c.buffer_reads);
  EXPECT_EQ(c.buffer_reads, c.xbar_traversals);
  // Every flit that entered the network left through some local port:
  // crossbar traversals = link traversals + ejections.
  std::uint64_t ejected = 0, injected_flits = 0;
  for (NodeId id = 0; id < 16; ++id) {
    ejected += net.ni(id).total_ejected_flits();
    injected_flits +=
        net.ni(id).total_generated() * static_cast<std::uint64_t>(p.packet_length);
  }
  EXPECT_EQ(c.xbar_traversals, c.link_flits + ejected);
  // All generated flits were delivered.
  EXPECT_EQ(ejected, injected_flits);
  // One VC allocation and at least one SA grant per packet per hop... at
  // minimum, VC allocs equal the number of (packet, router) pairs, which
  // is bounded below by packets and above by buffer writes.
  EXPECT_GE(c.vc_allocs, injected_flits / static_cast<std::uint64_t>(p.packet_length));
  EXPECT_LE(c.vc_allocs, c.buffer_writes);
}

TEST(Network, GateDarkRegionOnlyTicksActive) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  const std::vector<NodeId> active = {0, 1, 4, 5};
  net.gate_dark_region(active);
  net.run(50);
  for (NodeId id = 0; id < 16; ++id) {
    const bool is_active =
        std::find(active.begin(), active.end(), id) != active.end();
    EXPECT_EQ(net.router(id).counters().active_cycles, is_active ? 50u : 0u)
        << "node " << id;
    EXPECT_EQ(net.router(id).counters().gated_cycles, is_active ? 0u : 50u)
        << "node " << id;
  }
  net.ungate_all();
  net.run(10);
  EXPECT_EQ(net.router(15).counters().active_cycles, 10u);
}

TEST(Network, SetSeedReproducesTraffic) {
  auto run_once = [] {
    const NetworkParams p = small_params();
    XyRouting xy;
    Network net(p, &xy);
    net.set_endpoints(net.params().shape().all_nodes(),
                      make_traffic("uniform", 16));
    net.set_injection_rate(0.3);
    net.set_seed(1234);
    net.run(2000);
    return net.total_counters().buffer_writes;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Network, EndpointSubsetOnlyThoseInject) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  net.set_endpoints({0, 1, 4, 5}, make_traffic("uniform", 4));
  net.set_injection_rate(0.3);
  net.set_seed(5);
  net.run(2000);
  for (NodeId id : {2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
    EXPECT_EQ(net.ni(id).total_generated(), 0u) << "node " << id;
  EXPECT_GT(net.ni(0).total_generated(), 0u);
  EXPECT_GT(net.ni(5).total_generated(), 0u);
}

TEST(Network, ResetCountersClears) {
  const NetworkParams p = small_params();
  XyRouting xy;
  Network net(p, &xy);
  net.run(10);
  EXPECT_GT(net.total_counters().active_cycles, 0u);
  net.reset_counters();
  EXPECT_EQ(net.total_counters().active_cycles, 0u);
}

TEST(Network, RectangularMeshDelivers) {
  NetworkParams p;
  p.width = 8;
  p.height = 2;
  XyRouting xy;
  Network net(p, &xy);
  net.ni(0).send_packet(net.now(), 15);  // (7,1)
  for (int i = 0; i < 200 && !net.drained(); ++i) net.tick();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.ni(15).total_ejected_flits(), 5u);
}

}  // namespace
}  // namespace nocs::noc
