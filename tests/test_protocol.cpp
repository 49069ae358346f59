// Tests for message classes (virtual networks) and the request-reply
// protocol: VC partitioning, reply generation, and protocol-deadlock
// freedom under load.
#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "noc/simulator.hpp"
#include "sprint/cdor.hpp"
#include "sprint/topology.hpp"

namespace nocs::noc {
namespace {

NetworkParams protocol_params() {
  NetworkParams p;
  p.num_classes = 2;  // 4 VCs -> 2 per class
  return p;
}

TEST(MessageClasses, ParamsHelpers) {
  const NetworkParams p = protocol_params();
  EXPECT_EQ(p.vcs_per_class(), 2);
  EXPECT_EQ(p.class_of_vc(0), 0);
  EXPECT_EQ(p.class_of_vc(1), 0);
  EXPECT_EQ(p.class_of_vc(2), 1);
  EXPECT_EQ(p.class_of_vc(3), 1);
  EXPECT_EQ(p.first_vc_of(0), 0);
  EXPECT_EQ(p.first_vc_of(1), 2);
}

TEST(MessageClasses, IndivisiblePartitionRejected) {
  NetworkParams p;
  p.num_vcs = 4;
  p.num_classes = 3;
  EXPECT_DEATH(p.validate(), "precondition");
}

TEST(MessageClasses, CountsPastAnInt8Rejected) {
  // Flit carries the VC and the message class as int8.
  NetworkParams p;
  p.num_vcs = kMaxVcs;
  p.num_classes = kMaxVcs;
  p.validate();
  p.num_vcs = kMaxVcs + 1;
  p.num_classes = 1;
  EXPECT_DEATH(p.validate(), "precondition");
  p.num_classes = kMaxVcs + 1;
  EXPECT_DEATH(p.validate(), "precondition");
}

TEST(RequestReply, LengthsPastTheFlitIndexRejected) {
  const NetworkParams p = protocol_params();
  XyRouting xy;
  Network net(p, &xy);
  net.set_request_reply(1, kMaxPacketLength);
  EXPECT_DEATH(net.set_request_reply(1, kMaxPacketLength + 1),
               "precondition");
  EXPECT_DEATH(net.set_request_reply(kMaxPacketLength + 1, 5),
               "precondition");
}

TEST(RequestReply, SingleRoundTrip) {
  const NetworkParams p = protocol_params();
  XyRouting xy;
  Network net(p, &xy);
  net.set_request_reply(/*request_length=*/1, /*reply_length=*/5);
  net.ni(0).send_packet(net.now(), 15, /*msg_class=*/0, /*length=*/1);
  for (int i = 0; i < 300 && !net.drained(); ++i) net.tick();
  EXPECT_TRUE(net.drained());
  // Node 15 ejected the 1-flit request; node 0 ejected the 5-flit reply.
  EXPECT_EQ(net.ni(15).total_ejected_flits(), 1u);
  EXPECT_EQ(net.ni(0).total_ejected_flits(), 5u);
  // The reply is a second generated packet (at node 15).
  EXPECT_EQ(net.ni(15).total_generated(), 1u);
}

TEST(RequestReply, EveryRequestGetsExactlyOneReply) {
  const NetworkParams p = protocol_params();
  XyRouting xy;
  Network net(p, &xy);
  net.set_request_reply(1, 5);
  net.set_endpoints(net.params().shape().all_nodes(),
                    make_traffic("uniform", 16));
  net.set_injection_rate(0.1);
  net.set_seed(31);
  net.run(4000);
  net.set_injection_rate(0.0);
  for (int i = 0; i < 50000 && !net.drained(); ++i) net.tick();
  ASSERT_TRUE(net.drained());
  // Every node's ejected flits = requests_to_it * 1 + replies_to_it * 5;
  // globally: total flits = requests + 5 * requests (each request begets
  // one reply).
  std::uint64_t total_generated = 0, total_flits = 0;
  for (NodeId id = 0; id < 16; ++id) {
    total_generated += net.ni(id).total_generated();
    total_flits += net.ni(id).total_ejected_flits();
  }
  // generated = requests + replies = 2 * requests.
  EXPECT_EQ(total_generated % 2, 0u);
  const std::uint64_t requests = total_generated / 2;
  EXPECT_EQ(total_flits, requests * 1 + requests * 5);
}

TEST(RequestReply, RequiresTwoClasses) {
  NetworkParams p;  // num_classes == 1
  XyRouting xy;
  Network net(p, &xy);
  EXPECT_DEATH(net.set_request_reply(1, 5), "precondition");
}

TEST(MessageClasses, WrongClassVcArrivalDies) {
  // A head flit claiming class 1 but arriving on a class-0 VC violates
  // the partition discipline and must abort.
  const NetworkParams p = protocol_params();
  XyRouting xy;
  Network net(p, &xy);
  Flit f;
  f.is_head = true;
  f.is_tail = true;
  f.dst = 15;
  f.vc = 0;          // class 0 VC...
  f.msg_class = 1;   // ...carrying a class 1 packet
  // Inject through node 5's NI pipe is not accessible; use send_packet on
  // a hand-built network instead: craft via the router's local input by
  // sending with a mismatched class through the NI (the NI would not do
  // this, so drive the router directly).
  const auto pipe = Pipe<Flit>::make(1);
  const Topology topo = Topology::mesh(p.width, p.height);
  const LineBlock state =
      new_line_block(Router::storage_bytes(p, topo.num_ports(5)));
  Router r(5, p, topo, &xy, state.get());
  std::int16_t upstream_credits[4] = {};
  r.connect_input(Port::kWest, pipe.get(), upstream_credits);
  pipe->push(0, f);
  r.note_input(static_cast<int>(Port::kWest));  // no network wakes it
  r.tick(0);
  EXPECT_DEATH(r.tick(1), "precondition");
}

TEST(RequestReply, NoProtocolDeadlockUnderLoad) {
  // Sustained bidirectional request/reply pressure with tiny buffers —
  // exactly the scenario that deadlocks without VC partitioning.
  NetworkParams p = protocol_params();
  p.vc_depth = 2;
  XyRouting xy;
  Network net(p, &xy);
  net.set_request_reply(1, 5);
  net.set_endpoints(net.params().shape().all_nodes(),
                    make_traffic("uniform", 16));
  net.set_injection_rate(0.2);
  net.set_seed(77);
  net.run(8000);
  net.set_injection_rate(0.0);
  bool drained = false;
  for (int i = 0; i < 100000; ++i) {
    net.tick();
    if (net.drained()) {
      drained = true;
      break;
    }
  }
  EXPECT_TRUE(drained) << "protocol deadlock or livelock";
}

TEST(RequestReply, WorksOnSprintRegionWithCdor) {
  NetworkParams p = protocol_params();
  const auto active = sprint::active_set(p.shape(), 6, 0);
  sprint::CdorRouting cdor(p.shape(), active, 0);
  Network net(p, &cdor);
  net.set_endpoints(active, make_traffic("cache", 6));
  net.set_request_reply(1, 5);
  net.gate_dark_region(active);
  net.set_seed(13);
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 4000;
  cfg.injection_rate = 0.1;
  const SimResults r = run_simulation(net, cfg);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.packets_ejected, 0u);
  // CDOR still never wakes the dark region, even with replies flowing.
  EXPECT_EQ(net.total_counters().wake_events, 0u);
}

TEST(RequestReply, RepliesLoadTheResponseClass) {
  // With protocol traffic the network carries more flits than the offered
  // request load alone: each 1-flit request begets a 5-flit reply.
  const NetworkParams p = protocol_params();
  XyRouting xy;
  Network net(p, &xy);
  net.set_request_reply(1, 5);
  net.set_endpoints(net.params().shape().all_nodes(),
                    make_traffic("uniform", 16));
  net.set_seed(3);
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 4000;
  cfg.injection_rate = 0.05;
  const SimResults r = run_simulation(net, cfg);
  ASSERT_FALSE(r.saturated);
  // Accepted throughput ~ 6x the offered request-flit rate.
  EXPECT_GT(r.accepted_rate, 3.0 * cfg.injection_rate);
}

}  // namespace
}  // namespace nocs::noc
