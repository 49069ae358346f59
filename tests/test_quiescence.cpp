// Tests for the network's quiescence fast paths: the flit balance behind
// Network::drained(), the flit and credit conservation laws, the per-port
// input bits, and the hot-set bitsets.  Every scenario ticks cycle by
// cycle and asserts, at each cycle boundary, that drained() agrees with
// the reference scan, that both conservation laws hold, that every
// non-empty router input has its bit or a pending wake, and that
// hot_routers() equals a per-node count — serially, sharded, across a
// mid-run sim_threads switch, and across a mid-transfer restore.
//
// These run under the `parallel` ctest label so the ThreadSanitizer CI job
// covers the cross-barrier balances.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "fault/fault_injector.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_driver.hpp"
#include "mem/tile_schedule.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"

namespace nocs {
namespace {

/// The fast-path invariants at the current cycle boundary.  The hot-router
/// count is rebuilt bit by bit, and every router that reports work for the
/// next cycle must be hot (otherwise the fast path would skip it).
::testing::AssertionResult invariants_hold(const noc::Network& net) {
  if (net.drained() != net.drained_reference())
    return ::testing::AssertionFailure()
           << "drained() disagrees with the reference scan at cycle "
           << net.now();
  net.check_flit_conservation();
  net.check_credit_conservation();
  if (!net.input_wakes_armed())
    return ::testing::AssertionFailure()
           << "a non-empty router input has neither its bit nor a wake at "
           << "cycle " << net.now();
  int hot = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const bool is_hot = net.router_hot(id);
    hot += is_hot ? 1 : 0;
    if (!is_hot && net.router(id).busy_next_cycle())
      return ::testing::AssertionFailure()
             << "busy router " << id << " is cold at cycle " << net.now();
  }
  if (net.hot_routers() != hot)
    return ::testing::AssertionFailure()
           << "hot_routers() " << net.hot_routers() << " != per-node count "
           << hot << " at cycle " << net.now();
  return ::testing::AssertionSuccess();
}

// --- tile-transfer closed loop ----------------------------------------------

const char* const kSchedule = "f96,w64,c400,a48/f64,w32,c400,a48,b96";

/// fig13's closed loop on a 4x4 mesh: two 4-tile groups, two edge
/// controllers.  Not movable: the network points at the routing policy.
struct TileRig {
  TileRig(bool multicast, int sim_threads) {
    noc::NetworkParams p;
    p.width = 4;
    p.height = 4;
    p.num_classes = 2;
    net = std::make_unique<noc::Network>(p, &xy);
    net->set_sim_threads(sim_threads);
    mem::MemParams mp;
    mp.ctrls = 2;
    mem_sys = std::make_unique<mem::MemSubsystem>(*net, mp);
    const auto active = sprint::active_set(MeshShape(4, 4), 8);
    const std::vector<std::vector<NodeId>> groups = {
        {active[0], active[1], active[2], active[3]},
        {active[4], active[5], active[6], active[7]}};
    driver = std::make_unique<mem::TileTransferDriver>(
        *net, *mem_sys, mem::TileSchedule::parse(kSchedule), groups,
        mem::TileDriverOptions{.multicast = multicast, .chunk_flits = 0});
  }
  TileRig(const TileRig&) = delete;
  TileRig& operator=(const TileRig&) = delete;
  ~TileRig() { driver->uninstall(); }

  noc::XyRouting xy;
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<mem::MemSubsystem> mem_sys;
  std::unique_ptr<mem::TileTransferDriver> driver;
};

/// Ticks the rig until its driver finishes (or `until` cycles), checking
/// the invariants at every boundary.
void run_checked(TileRig& rig, Cycle until = 500000) {
  ASSERT_TRUE(invariants_hold(*rig.net));
  while (!rig.driver->done() && rig.net->now() < until) {
    rig.net->tick();
    ASSERT_TRUE(invariants_hold(*rig.net));
  }
}

TEST(Quiescence, TileTransferClosedLoop) {
  for (const bool multicast : {true, false}) {
    Cycle serial_finish = 0;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("multicast=" + std::to_string(multicast) +
                   " sim_threads=" + std::to_string(threads));
      TileRig rig(multicast, threads);
      rig.driver->install();
      run_checked(rig);
      ASSERT_TRUE(rig.driver->done());
      EXPECT_TRUE(rig.net->drained());
      EXPECT_EQ(rig.net->flits_in_flight(), 0);
      if (threads == 1)
        serial_finish = rig.driver->finished_at();
      else
        EXPECT_EQ(rig.driver->finished_at(), serial_finish);
    }
  }
}

TEST(Quiescence, ThreadSwitchMidTransfer) {
  TileRig ref(true, 1);
  ref.driver->install();
  run_checked(ref);
  ASSERT_TRUE(ref.driver->done());

  TileRig rig(true, 1);
  rig.driver->install();
  run_checked(rig, 300);
  ASSERT_FALSE(rig.driver->done());
  const std::int64_t in_flight = rig.net->flits_in_flight();
  EXPECT_GT(in_flight, 0);
  rig.net->set_sim_threads(4);  // folds the shard balances into the base
  EXPECT_EQ(rig.net->flits_in_flight(), in_flight);
  run_checked(rig);
  ASSERT_TRUE(rig.driver->done());
  EXPECT_EQ(rig.driver->finished_at(), ref.driver->finished_at());
}

TEST(Quiescence, RestoreMidTransfer) {
  TileRig ref(true, 1);
  ref.driver->install();
  run_checked(ref);
  ASSERT_TRUE(ref.driver->done());

  TileRig a(true, 4);
  a.driver->install();
  run_checked(a, 300);
  ASSERT_FALSE(a.driver->done());
  snapshot::Writer w;
  a.net->save_state(w);
  a.mem_sys->save_state(w);
  a.driver->save_state(w);

  // Restore under a different thread count: the balance is re-derived
  // from the restored buffers and pipes, not read from the snapshot.
  TileRig b(true, 1);
  snapshot::Reader r(w.bytes());
  b.net->load_state(r);
  b.mem_sys->load_state(r);
  b.driver->load_state(r);
  EXPECT_EQ(b.net->flits_in_flight(), a.net->flits_in_flight());
  b.driver->install();
  run_checked(b);
  ASSERT_TRUE(b.driver->done());
  EXPECT_EQ(b.driver->finished_at(), ref.driver->finished_at());
}

// --- open-loop scenarios ----------------------------------------------------

/// Ticks `net` for `cycles`, checking the invariants at every boundary.
void tick_checked(noc::Network& net, Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) {
    net.tick();
    ASSERT_TRUE(invariants_hold(net));
  }
}

TEST(Quiescence, DynamicGatingWakeOnArrival) {
  // Also on 1-5 cycle links, where a pipe can hold a flit due several
  // cycles after the one its router just took: that head's wake must be
  // re-armed rather than keep the router polling.
  const noc::LinkLatencyFn slow_links = [](NodeId a, NodeId c) {
    return 1 + (a * 7 + c) % 5;
  };
  for (const auto& [threads, slow] :
       {std::pair{1, false}, {4, false}, {1, true}, {4, true}}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads) +
                 (slow ? " slow links" : ""));
    noc::NetworkParams p;
    sprint::NetworkBundle b = sprint::make_sprinting_network(
        p, noc::Topology::mesh(p.width, p.height),
        sprint::NetworkScheme::kFull, 16, "uniform", 3, 0,
        slow ? slow_links : nullptr);
    noc::Network& net = *b.network;
    net.set_dynamic_gating(true);
    net.set_sim_threads(threads);
    // Light load: routers gate between packets and wake on arrival.
    net.set_injection_rate(0.03);
    ASSERT_NO_FATAL_FAILURE(tick_checked(net, 3000));
    net.set_injection_rate(0.0);
    for (int i = 0; i < 20000 && !net.drained(); ++i) {
      net.tick();
      ASSERT_TRUE(invariants_hold(net));
    }
    EXPECT_TRUE(net.drained());
    // Once drained, every router gates and the hot set empties.
    ASSERT_NO_FATAL_FAILURE(tick_checked(net, p.gate_idle_threshold + 10));
    EXPECT_GT(net.total_counters().wake_events, 0u);
    EXPECT_EQ(net.hot_routers(), 0);
  }
}

TEST(Quiescence, StuckRouterWithRetransmissions) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    fault::FaultParams fp;
    fp.enabled = true;
    fp.seed = 9;
    fp.drop_rate = 0.01;
    fp.flip_rate = 0.002;
    fp.stuck = {5};
    fp.stuck_from = 400;
    fp.ack_timeout = 64;
    fp.max_backoff = 512;
    noc::NetworkParams p;
    noc::XyRouting xy;
    noc::Network net(p, &xy);
    net.set_endpoints(p.shape().all_nodes(),
                      noc::make_traffic("uniform", p.num_nodes()));
    net.set_seed(4);
    fault::FaultInjector injector(p.shape(), fp);
    const noc::ProtectionParams prot = fp.protection();
    net.enable_resilience(&injector, &prot);
    net.set_sim_threads(threads);
    net.set_injection_rate(0.1);
    ASSERT_NO_FATAL_FAILURE(tick_checked(net, 1500));
    net.set_injection_rate(0.0);
    ASSERT_NO_FATAL_FAILURE(tick_checked(net, 1500));
    // The frozen router wedges the flits routed through it for good.
    EXPECT_GT(net.stats().resilience().retransmissions, 0u);
    EXPECT_GT(net.flits_in_flight(), 0);
    EXPECT_FALSE(net.drained());
  }
}

TEST(Quiescence, SaturatedPipesAtExactCapacity) {
  // Pipe rings hold exactly num_vcs * vc_depth values and never grow.
  // This drives them toward that bound: a 4x4 whose router 5 is frozen
  // from cycle 0 (nothing drains its inputs) and whose router 10 gates
  // when idle and wakes on each arrival, at a light load (router 10 gates
  // and wakes), then uniform traffic far past saturation (the network
  // wedges behind router 5), then light again.  Every push must fit,
  // serially and on three uneven shards, and both runs must agree.
  const noc::NetworkParams p;
  const int bound = p.num_vcs * p.vc_depth;
  std::vector<std::uint64_t> outcome[2];
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    fault::FaultParams fp;
    fp.enabled = true;
    fp.stuck = {5};
    noc::XyRouting xy;
    noc::Network net(p, &xy);
    net.set_endpoints(p.shape().all_nodes(),
                      noc::make_traffic("uniform", p.num_nodes()));
    net.set_seed(8);
    fault::FaultInjector injector(p.shape(), fp);
    net.enable_resilience(&injector);
    net.router(10).set_dynamic_gating(true);
    net.router(10).set_allow_wakeup(true);
    net.set_sim_threads(threads);
    for (const auto& [rate, cycles] :
         {std::pair{0.02, 500}, {0.6, 300}, {0.02, 1500}}) {
      net.set_injection_rate(rate);
      ASSERT_NO_FATAL_FAILURE(tick_checked(net, cycles));
    }

    // The frozen router never reads its input pipes, so the flits parked
    // in pipes exceed a whole ring's worth.
    EXPECT_EQ(net.router(5).counters().buffer_writes, 0u);
    std::int64_t buffered = 0;
    for (NodeId id = 0; id < net.num_nodes(); ++id)
      buffered += net.router(id).buffered_flits();
    EXPECT_GT(net.flits_in_flight() - buffered, bound);
    EXPECT_GT(net.router(10).counters().wake_events, 0u);

    const noc::RouterCounters c = net.total_counters();
    outcome[threads == 1 ? 0 : 1] = {
        net.progress_signature(), c.buffer_writes, c.link_flits,
        c.active_cycles,          c.gated_cycles,  c.wake_events,
        c.idle_active_cycles};
  }
  EXPECT_EQ(outcome[0], outcome[1]);
}

}  // namespace
}  // namespace nocs
