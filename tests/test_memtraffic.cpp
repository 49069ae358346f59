// Memory-traffic subsystem tests: edge DRAM controller ground truth,
// multicast vs unicast-fallback delivery equivalence, tile-transfer
// driver progress, checkpoint/restore mid-transfer, and serial-vs-
// sharded bit-identity (ctest label "mem").
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "mem/mem_params.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_driver.hpp"
#include "mem/tile_schedule.hpp"
#include "mem/tile_traffic.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "sprint/topology.hpp"

namespace nocs {
namespace {

noc::NetworkParams mesh44() {
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  p.num_classes = 2;
  return p;
}

void run_until_drained(noc::Network& net, int limit = 100000) {
  for (int i = 0; i < limit && !net.drained(); ++i) net.tick();
  ASSERT_TRUE(net.drained());
}

// --- placement --------------------------------------------------------------

TEST(MemPlacement, ControllerSitesAreDistinctBoundaryNodes) {
  const MeshShape shape(4, 4);
  for (auto placement : {mem::MemPlacement::kInterleave,
                         mem::MemPlacement::kNearest,
                         mem::MemPlacement::kEdges}) {
    for (int n : {1, 2, 4, 8, 12}) {
      const auto sites = mem::controller_sites(shape, n, placement);
      ASSERT_EQ(sites.size(), static_cast<std::size_t>(n));
      std::vector<bool> seen(16, false);
      for (NodeId s : sites) {
        ASSERT_TRUE(shape.valid(s));
        const Coord c = shape.coord_of(s);
        EXPECT_TRUE(c.x == 0 || c.x == 3 || c.y == 0 || c.y == 3)
            << "site " << s << " not on the boundary";
        EXPECT_FALSE(seen[static_cast<std::size_t>(s)]);
        seen[static_cast<std::size_t>(s)] = true;
      }
    }
  }
}

TEST(MemPlacement, XyPathMatchesManhattanDistance) {
  const MeshShape shape(4, 4);
  for (NodeId a = 0; a < 16; ++a)
    for (NodeId b = 0; b < 16; ++b) {
      const auto path = mem::xy_path_nodes(shape, a, b);
      ASSERT_GE(path.size(), 1u);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(static_cast<int>(path.size()),
                manhattan(shape.coord_of(a), shape.coord_of(b)) + 1);
    }
}

TEST(MemPlacement, NearestMappingPicksMinimumHopSite) {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  mem::MemParams mp;
  mp.ctrls = 4;
  mp.placement = mem::MemPlacement::kNearest;
  mem::MemSubsystem mem_sys(net, mp);
  const MeshShape shape(4, 4);
  for (NodeId tile = 0; tile < 16; ++tile) {
    const NodeId chosen = mem_sys.controller_for(tile, 0);
    const int d = manhattan(shape.coord_of(tile), shape.coord_of(chosen));
    for (NodeId site : mem_sys.sites())
      EXPECT_LE(d, manhattan(shape.coord_of(tile), shape.coord_of(site)));
    // The sequence number must not matter under nearest placement.
    EXPECT_EQ(chosen, mem_sys.controller_for(tile, 17));
  }
}

// --- controller ground truth ------------------------------------------------

TEST(MemController, ReadServiceTimeMatchesLatencyPlusBandwidth) {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  mem::MemParams mp;
  mp.ctrls = 1;
  mp.placement = mem::MemPlacement::kEdges;  // controller at node 0
  mp.bandwidth = 2;
  mp.access_latency = 60;
  mp.reply_length = 8;
  mem::MemSubsystem mem_sys(net, mp);
  ASSERT_EQ(mem_sys.sites().front(), 0);

  // One read command from the far corner.
  net.ni(15).send_packet(net.now(), 0, mem::kMemRequestClass, 1);
  run_until_drained(net);

  const mem::MemCounters c = mem_sys.total_counters();
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.writes, 0u);
  EXPECT_EQ(c.read_flits, 8u);
  EXPECT_EQ(c.replies, 1u);
  // Ground truth: the DRAM channel is busy exactly access_latency +
  // ceil(reply_length / bandwidth) cycles.
  EXPECT_EQ(c.busy_cycles, 60u + 4u);
  // The requester got the 8-flit data reply.
  EXPECT_EQ(net.ni(15).total_ejected_flits(), 8u);
}

TEST(MemController, WriteAbsorbsBurstAndAcksOneFlit) {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  mem::MemParams mp;
  mp.ctrls = 1;
  mp.placement = mem::MemPlacement::kEdges;
  mp.bandwidth = 4;
  mp.access_latency = 10;
  mem::MemSubsystem mem_sys(net, mp);

  net.ni(5).send_packet(net.now(), 0, mem::kMemRequestClass, 12);
  run_until_drained(net);

  const mem::MemCounters c = mem_sys.total_counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.write_flits, 12u);
  EXPECT_EQ(c.busy_cycles, 10u + 3u);
  // Write ack is a single flit.
  EXPECT_EQ(net.ni(5).total_ejected_flits(), 1u);
}

TEST(MemController, SerializesRequestsAndTracksOccupancy) {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  mem::MemParams mp;
  mp.ctrls = 1;
  mp.placement = mem::MemPlacement::kEdges;
  mp.bandwidth = 1;
  mp.access_latency = 20;
  mp.reply_length = 5;
  mem::MemSubsystem mem_sys(net, mp);

  const int kRequests = 6;
  for (int i = 0; i < kRequests; ++i)
    net.ni(15).send_packet(net.now(), 0, mem::kMemRequestClass, 1);
  run_until_drained(net);

  const mem::MemCounters c = mem_sys.total_counters();
  EXPECT_EQ(c.reads, static_cast<std::uint64_t>(kRequests));
  // One channel serializes: total busy time is the sum of services.
  EXPECT_EQ(c.busy_cycles, static_cast<std::uint64_t>(kRequests) * (20 + 5));
  EXPECT_GE(c.queue_peak, 2u);  // the burst had to queue
  EXPECT_EQ(net.ni(15).total_ejected_flits(),
            static_cast<std::uint64_t>(kRequests) * 5);
}

TEST(MemController, BoundedQueueRejectsOverflow) {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  mem::MemParams mp;
  mp.ctrls = 1;
  mp.placement = mem::MemPlacement::kEdges;
  mp.access_latency = 100;
  mp.queue_capacity = 2;
  mem::MemSubsystem mem_sys(net, mp);

  for (int i = 0; i < 8; ++i)
    net.ni(15).send_packet(net.now(), 0, mem::kMemRequestClass, 1);
  run_until_drained(net);

  const mem::MemCounters c = mem_sys.total_counters();
  EXPECT_GT(c.rejected, 0u);
  EXPECT_EQ(c.reads + c.rejected, 8u);
  EXPECT_LE(c.queue_peak, 2u);
}

// --- multicast --------------------------------------------------------------

// Runs one multicast of `length` flits from `src` over `members` and
// returns per-node ejected flit counts.
std::vector<std::uint64_t> run_multicast(bool tree, NodeId src,
                                         std::vector<NodeId> members,
                                         int length,
                                         std::uint64_t* replications) {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  const int group = net.add_multicast_group(members);
  net.set_multicast(tree);
  net.ni(src).send_multicast(net.now(), group, 0, length);
  for (int i = 0; i < 100000 && !net.drained(); ++i) net.tick();
  EXPECT_TRUE(net.drained());
  std::vector<std::uint64_t> ejected;
  std::uint64_t repl = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    ejected.push_back(net.ni(id).total_ejected_flits());
    repl += net.router(id).counters().mc_replications;
  }
  if (replications != nullptr) *replications = repl;
  return ejected;
}

TEST(Multicast, TreeDeliversOneCopyPerMember) {
  const std::vector<NodeId> members = {1, 3, 6, 9, 12, 15};
  std::uint64_t repl = 0;
  const auto ejected = run_multicast(true, 1, members, 7, &repl);
  for (NodeId id = 0; id < 16; ++id) {
    const bool member =
        std::find(members.begin(), members.end(), id) != members.end();
    const std::uint64_t expect = (member && id != 1) ? 7u : 0u;
    EXPECT_EQ(ejected[static_cast<std::size_t>(id)], expect)
        << "node " << id;
  }
  // A 6-member tree forwards through relays.
  EXPECT_GT(repl, 0u);
}

TEST(Multicast, UnicastFallbackDeliversIdenticalSet) {
  const std::vector<NodeId> members = {1, 3, 6, 9, 12, 15};
  std::uint64_t repl_tree = 0, repl_flat = 0;
  const auto tree = run_multicast(true, 1, members, 7, &repl_tree);
  const auto flat = run_multicast(false, 1, members, 7, &repl_flat);
  EXPECT_EQ(tree, flat);
  EXPECT_GT(repl_tree, 0u);
  EXPECT_EQ(repl_flat, 0u);  // no relaying without the tree
}

TEST(Multicast, LengthsPastTheFlitIndexRejected) {
  noc::XyRouting xy;
  noc::Network net(mesh44(), &xy);
  const int group = net.add_multicast_group({2, 7});
  EXPECT_DEATH(net.ni(0).send_multicast(0, group, 0,
                                        noc::kMaxPacketLength + 1),
               "precondition");
  mem::MemParams mp;
  mp.reply_length = noc::kMaxPacketLength;
  mp.validate();
  mp.reply_length = noc::kMaxPacketLength + 1;
  EXPECT_DEATH(mp.validate(), "precondition");
}

TEST(Multicast, SourceOutsideGroupReachesEveryMember) {
  const std::vector<NodeId> members = {2, 7, 8, 13};
  const auto ejected = run_multicast(true, 0, members, 5, nullptr);
  for (NodeId m : members)
    EXPECT_EQ(ejected[static_cast<std::size_t>(m)], 5u);
  EXPECT_EQ(ejected[0], 0u);
}

TEST(Multicast, ReplicationIsChargedToPower) {
  // mc_flits feed the power attribution; the tree run must record them.
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  const int group = net.add_multicast_group({0, 3, 12, 15});
  net.set_multicast(true);
  net.ni(0).send_multicast(net.now(), group, 0, 4);
  for (int i = 0; i < 100000 && !net.drained(); ++i) net.tick();
  ASSERT_TRUE(net.drained());
  std::uint64_t mc_flits = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    mc_flits += net.router(id).counters().mc_flits;
  EXPECT_GT(mc_flits, 0u);
}

// --- tile-transfer driver ---------------------------------------------------

struct DriverRun {
  Cycle cycles = 0;
  mem::MemCounters mem;
  mem::TileDriverCounters driver;
};

DriverRun run_driver(int sim_threads, bool multicast,
                     const std::string& schedule = "f96,w64,c400,a48/"
                                                   "f64,w32,c400,a48,b96") {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  if (sim_threads > 1) net.set_sim_threads(sim_threads);
  mem::MemParams mp;
  mp.ctrls = 2;
  mem::MemSubsystem mem_sys(net, mp);
  const auto active = sprint::active_set(MeshShape(4, 4), 8);
  std::vector<std::vector<NodeId>> groups = {
      {active[0], active[1], active[2], active[3]},
      {active[4], active[5], active[6], active[7]}};
  mem::TileTransferDriver driver(
      net, mem_sys, mem::TileSchedule::parse(schedule), groups,
      {.multicast = multicast, .chunk_flits = 0});
  driver.install();
  for (int i = 0; i < 500000 && !driver.done(); ++i) net.tick();
  EXPECT_TRUE(driver.done());
  driver.uninstall();
  DriverRun r;
  r.cycles = driver.finished_at();
  r.mem = mem_sys.total_counters();
  r.driver = driver.counters();
  return r;
}

void expect_same(const DriverRun& a, const DriverRun& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mem.reads, b.mem.reads);
  EXPECT_EQ(a.mem.writes, b.mem.writes);
  EXPECT_EQ(a.mem.read_flits, b.mem.read_flits);
  EXPECT_EQ(a.mem.write_flits, b.mem.write_flits);
  EXPECT_EQ(a.mem.busy_cycles, b.mem.busy_cycles);
  EXPECT_EQ(a.mem.queue_cycles, b.mem.queue_cycles);
  EXPECT_EQ(a.mem.queue_peak, b.mem.queue_peak);
  EXPECT_EQ(a.driver.dram_reads, b.driver.dram_reads);
  EXPECT_EQ(a.driver.dram_writes, b.driver.dram_writes);
  EXPECT_EQ(a.driver.weight_mcasts, b.driver.weight_mcasts);
  EXPECT_EQ(a.driver.act_packets, b.driver.act_packets);
}

TEST(TileDriver, CompletesAllLayersAndTouchesDram) {
  const DriverRun r = run_driver(1, true);
  EXPECT_EQ(r.driver.layers_done, 2u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.driver.dram_reads, 0u);
  EXPECT_GT(r.driver.dram_writes, 0u);
  EXPECT_GT(r.driver.weight_mcasts, 0u);
  EXPECT_GT(r.driver.act_packets, 0u);
  EXPECT_EQ(r.mem.reads, r.driver.dram_reads);
  EXPECT_EQ(r.mem.writes, r.driver.dram_writes);
  EXPECT_EQ(r.mem.rejected, 0u);
}

TEST(TileDriver, SerialAndShardedTicksAreBitIdentical) {
  expect_same(run_driver(1, true), run_driver(4, true));
}

TEST(TileDriver, UnicastFallbackAlsoBitIdenticalAcrossThreads) {
  expect_same(run_driver(1, false), run_driver(4, false));
}

TEST(TileDriver, MulticastOffMovesSameDramVolume) {
  const DriverRun on = run_driver(1, true);
  const DriverRun off = run_driver(1, false);
  // Weight transport differs (tree vs serial unicast) but the DRAM side
  // of the workload is identical.
  EXPECT_EQ(on.mem.reads, off.mem.reads);
  EXPECT_EQ(on.mem.writes, off.mem.writes);
  EXPECT_EQ(on.mem.read_flits, off.mem.read_flits);
  EXPECT_EQ(on.mem.write_flits, off.mem.write_flits);
}

// --- checkpoint/restore -----------------------------------------------------

TEST(TileDriver, CheckpointRestoreMidTransferIsBitIdentical) {
  const noc::NetworkParams p = mesh44();
  noc::XyRouting xy;
  mem::MemParams mp;
  mp.ctrls = 2;
  const mem::TileSchedule sched =
      mem::TileSchedule::parse("f96,w64,c400,a48/f64,w32,c400,a48,b96");
  const std::vector<std::vector<NodeId>> groups = {{0, 1, 4, 5},
                                                   {2, 3, 6, 7}};

  // Reference run straight through.
  noc::Network ref_net(p, &xy);
  mem::MemSubsystem ref_mem(ref_net, mp);
  mem::TileTransferDriver ref_driver(ref_net, ref_mem, sched, groups, {});
  ref_driver.install();
  for (int i = 0; i < 500000 && !ref_driver.done(); ++i) ref_net.tick();
  ASSERT_TRUE(ref_driver.done());

  // Checkpointed run: stop mid-transfer (while DRAM queues are hot),
  // snapshot network + controllers + driver, restore into fresh objects,
  // finish there.
  noc::Network net_a(p, &xy);
  mem::MemSubsystem mem_a(net_a, mp);
  mem::TileTransferDriver driver_a(net_a, mem_a, sched, groups, {});
  driver_a.install();
  const Cycle cut = 300;
  while (net_a.now() < cut) net_a.tick();
  ASSERT_FALSE(driver_a.done());
  snapshot::Writer w;
  net_a.save_state(w);
  mem_a.save_state(w);
  driver_a.save_state(w);

  noc::Network net_b(p, &xy);
  mem::MemSubsystem mem_b(net_b, mp);
  mem::TileTransferDriver driver_b(net_b, mem_b, sched, groups, {});
  snapshot::Reader r(w.bytes());
  net_b.load_state(r);
  mem_b.load_state(r);
  driver_b.load_state(r);
  driver_b.install();
  for (int i = 0; i < 500000 && !driver_b.done(); ++i) net_b.tick();
  ASSERT_TRUE(driver_b.done());

  EXPECT_EQ(driver_b.finished_at(), ref_driver.finished_at());
  const mem::MemCounters ca = ref_mem.total_counters();
  const mem::MemCounters cb = mem_b.total_counters();
  EXPECT_EQ(ca.reads, cb.reads);
  EXPECT_EQ(ca.writes, cb.writes);
  EXPECT_EQ(ca.busy_cycles, cb.busy_cycles);
  EXPECT_EQ(ca.queue_cycles, cb.queue_cycles);
  EXPECT_EQ(ref_driver.counters().dram_reads, driver_b.counters().dram_reads);
  EXPECT_EQ(ref_driver.counters().act_packets,
            driver_b.counters().act_packets);
}

// --- schedule + pattern -----------------------------------------------------

TEST(TileSchedule, ParseRoundTripsAndRejectsJunk) {
  const mem::TileSchedule s =
      mem::TileSchedule::parse("f10,w20,c30,a40,b50/a7");
  ASSERT_EQ(s.layers.size(), 2u);
  EXPECT_EQ(s.layers[0].fetch_flits, 10);
  EXPECT_EQ(s.layers[0].weight_flits, 20);
  EXPECT_EQ(s.layers[0].compute_cycles, 30);
  EXPECT_EQ(s.layers[0].act_flits, 40);
  EXPECT_EQ(s.layers[0].writeback_flits, 50);
  EXPECT_EQ(s.layers[1].act_flits, 7);
  EXPECT_EQ(s.layers[1].fetch_flits, 0);
  EXPECT_EQ(mem::TileSchedule::parse(s.to_string()).to_string(),
            s.to_string());
  EXPECT_THROW(mem::TileSchedule::parse("x5"), std::invalid_argument);
  EXPECT_THROW(mem::TileSchedule::parse("w"), std::invalid_argument);
  EXPECT_THROW(mem::TileSchedule::parse("w5x"), std::invalid_argument);
  EXPECT_THROW(mem::TileSchedule::parse(""), std::invalid_argument);
  EXPECT_THROW(mem::TileSchedule::parse("f0,w0"), std::invalid_argument);
}

TEST(TileTraffic, NeverSelfSendsAndStaysInRange) {
  Rng rng(99);
  for (int k : {2, 3, 5, 8, 13, 16}) {
    for (int groups : {1, 2, 3, 4}) {
      if (groups > k) continue;
      mem::TileTraffic t(k, groups, 0.3);
      for (int src = 0; src < k; ++src)
        for (int draw = 0; draw < 200; ++draw) {
          const int d = t.dest(src, rng);
          ASSERT_GE(d, 0);
          ASSERT_LT(d, k);
          ASSERT_NE(d, src);
        }
    }
  }
}

TEST(TileTraffic, GroupPartitionIsContiguousAndCoversAll) {
  mem::TileTraffic t(10, 3);
  // Sizes 4,3,3: leaders at 0, 4, 7.
  EXPECT_EQ(t.leader_of(0), 0);
  EXPECT_EQ(t.leader_of(1), 4);
  EXPECT_EQ(t.leader_of(2), 7);
  int prev = -1;
  for (int e = 0; e < 10; ++e) {
    const int g = t.group_of(e);
    EXPECT_GE(g, prev);  // non-decreasing: contiguous blocks
    prev = g;
  }
  EXPECT_EQ(t.group_of(9), 2);
}

}  // namespace
}  // namespace nocs
