// Tests for the fault-injection framework: injector determinism,
// end-to-end retransmission recovery, the livelock watchdog, the
// fault-tolerant CDOR detour, wake-failure retries, and graceful sprint
// degradation.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cmp/perf_model.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "noc/parallel_sweep.hpp"
#include "noc/simulator.hpp"
#include "power/chip_power.hpp"
#include "power/noc_power.hpp"
#include "sprint/cdor.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/online_adapt.hpp"
#include "sprint/sprint_controller.hpp"
#include "sprint/topology.hpp"
#include "thermal/pcm.hpp"

namespace nocs {
namespace {

fault::FaultParams storm_params() {
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 42;
  fp.flip_rate = 0.002;
  fp.drop_rate = 0.01;
  fp.link_down_rate = 0.0005;
  fp.link_down_cycles = 30;
  fp.ack_timeout = 200;
  fp.max_backoff = 2000;
  return fp;
}

struct FaultRig {
  std::unique_ptr<noc::RoutingPolicy> policy;
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<fault::FaultInjector> injector;
};

FaultRig make_rig(const fault::FaultParams& fp, int level,
                  std::uint64_t seed) {
  noc::NetworkParams params;
  auto bundle =
      sprint::make_noc_sprinting_network(params, level, "uniform", seed);
  FaultRig rig;
  rig.policy = std::move(bundle.policy);
  rig.net = std::move(bundle.network);
  rig.injector = std::make_unique<fault::FaultInjector>(params.shape(), fp);
  const noc::ProtectionParams prot = fp.protection();
  rig.net->enable_resilience(rig.injector.get(), &prot);
  return rig;
}

// --- injector determinism --------------------------------------------------

TEST(FaultInjector, IdenticalSeedsGiveIdenticalStreams) {
  const MeshShape mesh(4, 4);
  fault::FaultParams fp = storm_params();
  fp.wake_fail_prob = 0.5;
  fault::FaultInjector a(mesh, fp);
  fault::FaultInjector b(mesh, fp);
  for (Cycle t = 0; t < 2000; ++t) {
    EXPECT_EQ(a.corrupt_link_flit(0, 1, t), b.corrupt_link_flit(0, 1, t));
    EXPECT_EQ(a.link_down(5, 6, t), b.link_down(5, 6, t));
    EXPECT_EQ(a.drop_packet(3, t), b.drop_packet(3, t));
    EXPECT_EQ(a.wake_fails(2, 1, t), b.wake_fails(2, 1, t));
  }
}

TEST(FaultInjector, StreamsIndependentAcrossEntities) {
  // Querying extra entities on one injector must not perturb another
  // entity's stream (per-entity RNGs, the determinism contract).
  const MeshShape mesh(4, 4);
  const fault::FaultParams fp = storm_params();
  fault::FaultInjector a(mesh, fp);
  fault::FaultInjector b(mesh, fp);
  for (Cycle t = 0; t < 1000; ++t) {
    (void)a.drop_packet(2, t);       // extra traffic on node 2 in `a` only
    (void)a.corrupt_link_flit(8, 9, t);
    EXPECT_EQ(a.drop_packet(3, t), b.drop_packet(3, t));
    EXPECT_EQ(a.corrupt_link_flit(0, 1, t), b.corrupt_link_flit(0, 1, t));
  }
}

TEST(FaultInjector, LinkOutagesLastConfiguredDuration) {
  const MeshShape mesh(4, 4);
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 9;
  fp.link_down_rate = 0.01;
  fp.link_down_cycles = 25;
  fault::FaultInjector inj(mesh, fp);
  int down = 0;
  const Cycle horizon = 50000;
  for (Cycle t = 0; t < horizon; ++t) down += inj.link_down(1, 2, t) ? 1 : 0;
  EXPECT_GT(down, 0);
  EXPECT_EQ(down % fp.link_down_cycles, 0);  // whole intervals only
  EXPECT_LT(down, static_cast<int>(horizon));
}

TEST(FaultInjector, RejectsInvalidRates) {
  fault::FaultParams fp;
  fp.flip_rate = 1.5;
  EXPECT_DEATH(fp.validate(), "");
}

// --- end-to-end protection -------------------------------------------------

TEST(Resilience, FaultStormLosesNoMeasuredPacket) {
  FaultRig rig = make_rig(storm_params(), /*level=*/8, /*seed=*/1);
  noc::SimConfig sim;
  sim.warmup = 1000;
  sim.measure = 5000;
  sim.injection_rate = 0.1;
  sim.watchdog_cycles = 20000;
  const noc::SimResults r = run_simulation(*rig.net, sim);

  EXPECT_FALSE(r.hung) << r.diagnostic;
  EXPECT_FALSE(r.saturated);
  // Every measured packet was eventually delivered exactly once...
  EXPECT_EQ(r.packets_ejected, r.packets_generated);
  // ...and the faults genuinely exercised the recovery machinery.
  EXPECT_GT(r.resilience.retransmissions, 0u);
  EXPECT_GT(r.resilience.dropped_packets, 0u);
  EXPECT_GT(r.resilience.corrupted_packets, 0u);
  EXPECT_GT(r.resilience.acks_sent, 0u);
}

TEST(Resilience, FaultFreeRunWithProtectionStillDrains) {
  // Oracle attached but all rates zero: the ACK machinery runs (acks are
  // sent) yet nothing is ever retransmitted or lost.
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 3;
  FaultRig rig = make_rig(fp, /*level=*/4, /*seed=*/5);
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 3000;
  sim.injection_rate = 0.08;
  const noc::SimResults r = run_simulation(*rig.net, sim);
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.packets_ejected, r.packets_generated);
  EXPECT_EQ(r.resilience.retransmissions, 0u);
  EXPECT_EQ(r.resilience.corrupted_packets, 0u);
  EXPECT_EQ(r.resilience.duplicates, 0u);
  EXPECT_GT(r.resilience.acks_sent, 0u);
}

TEST(Resilience, NullOracleIsBitIdenticalToSeedPath) {
  // The resilience hooks must not disturb the fault-free simulator: a
  // network with no oracle and no protection produces exactly the seed
  // results.
  noc::NetworkParams params;
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 3000;
  sim.injection_rate = 0.1;

  auto plain = sprint::make_noc_sprinting_network(params, 8, "uniform", 7);
  const noc::SimResults a = run_simulation(*plain.network, sim);

  auto hooked = sprint::make_noc_sprinting_network(params, 8, "uniform", 7);
  hooked.network->enable_resilience(nullptr, nullptr);  // explicit no-op
  const noc::SimResults b = run_simulation(*hooked.network, sim);

  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);  // bitwise
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.counters.buffer_writes, b.counters.buffer_writes);
  EXPECT_EQ(a.counters.flits_corrupted, 0u);
  EXPECT_EQ(b.resilience.retransmissions, 0u);
}

TEST(Resilience, SweepIsDeterministicAcrossThreadCounts) {
  const fault::FaultParams fp = storm_params();
  const noc::NetworkParams params;
  const std::vector<double> rates = {0.05, 0.1, 0.15};
  auto body = [&](std::size_t i) {
    auto bundle = sprint::make_noc_sprinting_network(params, 8, "uniform",
                                                     task_seed(11, i));
    auto injector =
        std::make_unique<fault::FaultInjector>(params.shape(), fp);
    const noc::ProtectionParams prot = fp.protection();
    bundle.network->enable_resilience(injector.get(), &prot);
    noc::SimConfig sim;
    sim.warmup = 500;
    sim.measure = 2500;
    sim.injection_rate = rates[i];
    sim.watchdog_cycles = 20000;
    return noc::to_json(run_simulation(*bundle.network, sim));
  };
  const auto serial = noc::run_resumable(rates.size(), 1, nullptr, nullptr,
                                         body);
  const auto parallel = noc::run_resumable(rates.size(), 4, nullptr,
                                           nullptr, body);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Equal dumps: every counter and bit-identical latencies.
    EXPECT_EQ(serial[i].dump(), parallel[i].dump());
    EXPECT_GT(serial[i].at("resilience").at("retransmissions").as_number() +
                  serial[i].at("counters").at("flits_corrupted").as_number(),
              0.0);
  }
}

// --- watchdog --------------------------------------------------------------

TEST(Watchdog, FiresOnStuckRouterWithDiagnostic) {
  // A fail-stop router wedges the wormhole path through it; the watchdog
  // must notice the lack of progress and name the wedged nodes.
  noc::NetworkParams params;
  noc::XyRouting routing;
  noc::Network net(params, &routing);
  fault::FaultParams fp;
  fp.enabled = true;
  fp.stuck = {5};
  fp.stuck_from = 0;
  fault::FaultInjector injector(params.shape(), fp);
  net.enable_resilience(&injector, nullptr);

  fault::Watchdog dog(net, /*no_progress_limit=*/500);
  // Node 4 -> node 6 routes east straight through stuck node 5 under XY.
  net.ni(4).send_packet(net.now(), 6);
  bool fired = false;
  for (int i = 0; i < 5000 && !fired; ++i) {
    net.tick();
    if (i % 16 == 0) fired = dog.poll();
  }
  ASSERT_TRUE(fired);
  EXPECT_FALSE(net.drained());
  EXPECT_NE(dog.diagnostic().find("node"), std::string::npos);
  EXPECT_NE(dog.diagnostic().find("buffered_flits"), std::string::npos);
}

TEST(Watchdog, StaysQuietOnHealthyTraffic) {
  noc::NetworkParams params;
  noc::XyRouting routing;
  noc::Network net(params, &routing);
  net.set_endpoints(params.shape().all_nodes(),
                    noc::make_traffic("uniform", params.num_nodes()));
  net.set_seed(1);
  net.set_injection_rate(0.1);
  fault::Watchdog dog(net, 200);
  for (int i = 0; i < 4000; ++i) {
    net.tick();
    if (i % 16 == 0) {
      EXPECT_FALSE(dog.poll());
    }
  }
  // An idle-but-drained network must not trip the watchdog either.
  net.set_injection_rate(0.0);
  for (int i = 0; i < 2000; ++i) net.tick();
  EXPECT_FALSE(dog.poll());
}

TEST(Watchdog, RunSimulationReportsHangOnStuckRouter) {
  // The simulator-integrated watchdog: a stuck router inside the sprint
  // region under sustained load eventually wedges enough VCs that all
  // forward progress stops, and run_simulation reports hung + diagnostic
  // instead of spinning until drain_max.
  fault::FaultParams fp;
  fp.enabled = true;
  fp.stuck_from = 400;
  const noc::NetworkParams params;
  const auto active = sprint::active_set(params.shape(), 4, 0);
  fp.stuck = {active[1]};  // a non-master node carrying region traffic
  // Level 4 on a 4x4 mesh is a 2x2 region: every flow crosses few links,
  // so the stuck node chokes the whole region quickly.
  FaultRig rig = make_rig(fp, /*level=*/4, /*seed=*/2);
  noc::SimConfig sim;
  sim.warmup = 1000;
  sim.measure = 4000;
  sim.injection_rate = 0.25;
  sim.drain_max = 50000;
  sim.watchdog_cycles = 3000;
  const noc::SimResults r = run_simulation(*rig.net, sim);
  EXPECT_TRUE(r.hung);
  EXPECT_NE(r.diagnostic.find("network diagnostic"), std::string::npos);
}

// --- stuck routers and the wake schedule ------------------------------------
//
// A frozen router reads nothing, so the network ticks it only on the
// cycles its input wakes say a value is due, or once after a restore or
// re-shard marks every node hot.  Each such tick counts one leakage cycle
// in the router's power state (gated while gated, idle-active otherwise),
// exactly what sync_counters credits for a skipped cycle, so ticking a
// frozen router equals skipping it.  These runs pin the counters and
// network power of runs that hold a router frozen while gated, and a
// checkpoint cut anywhere in them resumes to the uninterrupted numbers.

struct Pinned {
  Cycle cycles;
  std::uint64_t packets_ejected;
  std::uint64_t active_cycles;
  std::uint64_t idle_active_cycles;
  std::uint64_t gated_cycles;
  std::uint64_t waking_cycles;
  std::uint64_t wake_events;
  double noc_power_w;
};

void expect_pinned(const noc::SimResults& r, double noc_power_w,
                   const Pinned& want) {
  EXPECT_EQ(r.cycles, want.cycles);
  EXPECT_EQ(r.packets_ejected, want.packets_ejected);
  EXPECT_EQ(r.counters.active_cycles, want.active_cycles);
  EXPECT_EQ(r.counters.idle_active_cycles, want.idle_active_cycles);
  EXPECT_EQ(r.counters.gated_cycles, want.gated_cycles);
  EXPECT_EQ(r.counters.waking_cycles, want.waking_cycles);
  EXPECT_EQ(r.counters.wake_events, want.wake_events);
  EXPECT_EQ(noc_power_w, want.noc_power_w);
}

TEST(StuckRouter, DarkNodeFrozenFromStartCoolsLikeTheWakeSchedule) {
  // NoC-sprinting at level 4 on a 4x4: node 15 is dark (statically gated)
  // and frozen from cycle 0.  No traffic ever reaches it, so after its
  // first tick it must stay cold and keep counting gated cycles.
  fault::FaultParams fp;
  fp.enabled = true;
  fp.stuck = {15};
  fp.stuck_from = 0;
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1200;
  sim.injection_rate = 0.2;
  sim.drain_max = 20000;
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    FaultRig rig = make_rig(fp, /*level=*/4, /*seed=*/1);
    rig.net->set_sim_threads(threads);
    const noc::SimResults r = noc::run_simulation(*rig.net, sim);
    expect_pinned(r, power::estimate_noc_power(*rig.net, r.cycles).total(),
                  {1519, 168, 6076, 2163, 18228, 0, 0, 0.12558756339697169});
  }
}

/// run_frozen_slow_mesh's full run.
constexpr Pinned kFrozenSlowMesh = {3300,  180,  24551, 14870,
                                    87567, 6682, 838,   0.22727284084848484};

/// A 6x6 XY mesh with 1-5 cycle links and dynamic gating after a single
/// idle cycle, so routers gate while flits are still in flight toward
/// them.  The endpoints are rows 0-2 plus node 18, so only node 18's
/// eastbound packets cross router 20 (4-cycle link from router 19).
/// Router 20 freezes at cycle 700, gated by then, and those flits pile
/// up on its input.
noc::SimResults run_frozen_slow_mesh(int sim_threads,
                                     const noc::CheckpointConfig& ckpt,
                                     double* noc_power_w) {
  noc::NetworkParams params;
  params.width = 6;
  params.height = 6;
  params.gate_idle_threshold = 1;
  const noc::XyRouting xy;
  noc::Network net(params, &xy,
                   [](NodeId a, NodeId b) { return 1 + (a * 7 + b) % 5; });
  std::vector<NodeId> endpoints(19);
  std::iota(endpoints.begin(), endpoints.end(), NodeId{0});
  net.set_endpoints(endpoints, noc::make_traffic("uniform", 19));
  net.set_seed(3);
  net.set_dynamic_gating(true);
  fault::FaultParams fp;
  fp.enabled = true;
  fp.stuck = {20};
  fp.stuck_from = 700;
  fault::FaultInjector injector(params.shape(), fp);
  net.enable_resilience(&injector, nullptr);
  net.set_sim_threads(sim_threads);
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1500;
  sim.injection_rate = 0.03;
  sim.drain_max = 1500;
  noc::CheckpointConfig c = ckpt;
  c.extras.emplace_back("fault", &injector);
  const noc::SimResults r = noc::run_simulation(net, sim, c);
  *noc_power_w = power::estimate_noc_power(net, r.cycles).total();
  return r;
}

TEST(StuckRouter, GatedRouterFrozenOnSlowLinksTicksOnlyWhenInputsAreDue) {
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    double power_w = 0.0;
    const noc::SimResults r = run_frozen_slow_mesh(threads, {}, &power_w);
    EXPECT_TRUE(r.saturated);  // the frozen router wedges some paths
    expect_pinned(r, power_w, kFrozenSlowMesh);
  }
}

TEST(StuckRouter, RestoreAroundAFrozenGatedRouter) {
  // Cut under 3 shards just after the freeze (router 20 gated with
  // nothing due), and later while a flit waits on its input.  Restored
  // serially and under 2 shards, the run re-arms every input wake and
  // ticks every router once; that tick counts as a gated cycle for the
  // frozen gated router, so every cut ends on the uninterrupted numbers.
  const std::string path =
      ::testing::TempDir() + "fault_frozen_slow_mesh.nocsnap";
  for (const Cycle cut : {701u, 705u, 720u, 1100u}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    noc::CheckpointConfig stop;
    stop.save_path = path;
    stop.stop_at = cut;
    double power_w = 0.0;
    ASSERT_TRUE(run_frozen_slow_mesh(3, stop, &power_w).interrupted);
    for (const int threads : {1, 2}) {
      SCOPED_TRACE("restore with sim_threads=" + std::to_string(threads));
      noc::CheckpointConfig resume;
      resume.restore_path = path;
      const noc::SimResults r =
          run_frozen_slow_mesh(threads, resume, &power_w);
      EXPECT_FALSE(r.interrupted);
      expect_pinned(r, power_w, kFrozenSlowMesh);
    }
  }
  std::remove(path.c_str());
}

// --- CDOR fault-tolerant fallback ------------------------------------------

/// Port enum -> policy port index.
constexpr int idx(Port p) { return static_cast<int>(p); }

TEST(CdorReroute, DetourGoesNorthAndStaysInsideRegion) {
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const auto active = sprint::active_set(mesh, 6, 0);
  const sprint::CdorRouting cdor(mesh, active, 0);
  // Node (0,1) -> (1,1): planned east.  With that link down the detour
  // must be the canonical-north hop into the wider row above.
  const NodeId cur = mesh.id_of(Coord{0, 1});
  const NodeId dst = mesh.id_of(Coord{1, 1});
  EXPECT_EQ(cdor.route_port(topo, cur, dst), idx(Port::kEast));
  const int alt = cdor.reroute_port(topo, cur, dst, idx(Port::kEast));
  EXPECT_EQ(alt, idx(Port::kNorth));
  EXPECT_TRUE(cdor.is_active(topo.neighbor(cur, alt)));
}

TEST(CdorReroute, NoDetourOnMasterRowOrNonEastHops) {
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const auto active = sprint::active_set(mesh, 6, 0);
  const sprint::CdorRouting cdor(mesh, active, 0);
  auto reroute = [&](Coord cur, Coord dst, Port blocked) {
    return cdor.reroute_port(topo, mesh.id_of(cur), mesh.id_of(dst),
                             idx(blocked));
  };
  // Master row: no row above, keep the planned port.
  EXPECT_EQ(reroute(Coord{0, 0}, Coord{2, 0}, Port::kEast), idx(Port::kEast));
  // Westward and Y-phase hops have no safe alternative.
  EXPECT_EQ(reroute(Coord{1, 1}, Coord{0, 1}, Port::kWest), idx(Port::kWest));
  EXPECT_EQ(reroute(Coord{0, 1}, Coord{0, 0}, Port::kNorth),
            idx(Port::kNorth));
}

TEST(CdorReroute, XyRoutingNeverDetours) {
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const noc::XyRouting xy;
  EXPECT_EQ(xy.reroute_port(topo, 4, 6, idx(Port::kEast)), idx(Port::kEast));
}

TEST(CdorReroute, LinkFaultsNeverLeakTrafficIntoDarkRegion) {
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 17;
  fp.link_down_rate = 0.002;
  fp.link_down_cycles = 40;
  FaultRig rig = make_rig(fp, /*level=*/6, /*seed=*/4);
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 4000;
  sim.injection_rate = 0.12;
  sim.watchdog_cycles = 20000;
  const noc::SimResults r = run_simulation(*rig.net, sim);
  EXPECT_FALSE(r.hung) << r.diagnostic;
  EXPECT_EQ(r.packets_ejected, r.packets_generated);
  // Outages really happened (deterministic under the fixed seed)...
  EXPECT_GT(r.counters.flits_corrupted + r.counters.reroutes, 0u);
  // ...yet gated dark-region routers never saw a single flit.
  const auto active = sprint::active_set(noc::NetworkParams{}.shape(), 6, 0);
  const auto per_router = rig.net->per_router_counters();
  for (NodeId id = 0; id < rig.net->num_nodes(); ++id) {
    if (std::find(active.begin(), active.end(), id) != active.end())
      continue;
    EXPECT_EQ(per_router[static_cast<std::size_t>(id)].buffer_writes, 0u)
        << "dark node " << id;
  }
}

// --- power-gate wake failures ----------------------------------------------

TEST(Resilience, WakeFailuresRetryAndEventuallySucceed) {
  noc::NetworkParams params;
  noc::XyRouting routing;
  noc::Network net(params, &routing);
  net.set_dynamic_gating(true);
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 5;
  fp.wake_fail_prob = 1.0;  // every attempt fails...
  fp.wake_retry = 7;
  fp.wake_max_retries = 3;  // ...until attempt 4 is forced through
  fault::FaultInjector injector(params.shape(), fp);
  net.enable_resilience(&injector, nullptr);

  // Let every router gate, then push one packet through the gated path.
  net.run(params.gate_idle_threshold + 50);
  net.ni(0).send_packet(net.now(), 3);
  for (int i = 0; i < 4000 && net.ni(3).total_ejected_flits() == 0; ++i)
    net.tick();
  EXPECT_GT(net.ni(3).total_ejected_flits(), 0u);  // delivered despite faults
  const noc::RouterCounters total = net.total_counters();
  EXPECT_GT(total.wake_failures, 0u);
  // Each wake needed exactly wake_max_retries failed attempts.
  EXPECT_EQ(total.wake_failures % 3, 0u);
}

// --- graceful degradation --------------------------------------------------

TEST(Degradation, LargestHealthyPrefixStopsAtFirstFailure) {
  const MeshShape mesh(4, 4);
  const auto order = sprint::sprint_order(mesh, 0);
  for (int level = 1; level <= mesh.size(); ++level) {
    for (int k = 0; k < mesh.size(); ++k) {
      const auto healthy =
          sprint::largest_healthy_prefix(mesh, level, {order[k]}, 0);
      const std::size_t expect =
          static_cast<std::size_t>(std::min(level, k));
      ASSERT_EQ(healthy.size(), expect) << "level=" << level << " k=" << k;
      if (!healthy.empty()) {
        EXPECT_TRUE(sprint::is_convex_region(mesh, healthy));
        EXPECT_TRUE(sprint::is_staircase_region(mesh, healthy));
      }
    }
  }
}

TEST(Degradation, FailedMasterLeavesNoHealthyRegion) {
  const MeshShape mesh(4, 4);
  EXPECT_TRUE(sprint::largest_healthy_prefix(mesh, 8, {0}, 0).empty());
}

TEST(Degradation, HealthyNodesOutsidePrefixDoNotMatter) {
  const MeshShape mesh(4, 4);
  const auto order = sprint::sprint_order(mesh, 0);
  // A failure beyond the requested level changes nothing.
  const auto healthy =
      sprint::largest_healthy_prefix(mesh, 4, {order[10]}, 0);
  EXPECT_EQ(healthy, sprint::active_set(mesh, 4, 0));
}

TEST(Degradation, ControllerPlansAroundFailedNodes) {
  const MeshShape mesh(4, 4);
  const cmp::PerfModel perf(16);
  const power::ChipPowerModel chip{power::ChipPowerParams{}};
  const thermal::PcmModel pcm{thermal::PcmParams{}};
  const sprint::SprintController ctl(mesh, perf, chip, pcm);
  const auto suite = cmp::parsec_suite(16);
  const auto& w = cmp::find_workload(suite, "dedup");

  const auto healthy_plan = ctl.plan(w, sprint::SprintMode::kNocSprinting);
  ASSERT_GE(healthy_plan.level, 2);
  const NodeId failed = healthy_plan.active[1];
  const auto degraded =
      ctl.plan(w, sprint::SprintMode::kNocSprinting, {failed});
  EXPECT_LT(degraded.level, healthy_plan.level);
  EXPECT_EQ(degraded.level, static_cast<int>(degraded.active.size()));
  for (NodeId id : degraded.active) EXPECT_NE(id, failed);
  EXPECT_TRUE(sprint::is_convex_region(mesh, degraded.active));
  // A degraded sprint is slower but still a sprint.
  EXPECT_LE(degraded.speedup, healthy_plan.speedup);
  EXPECT_GE(degraded.speedup, 1.0);
}

TEST(Degradation, OnlineControllerRestrictsItsCeiling) {
  sprint::OnlineLevelController ctl(16, /*start_level=*/8);
  ctl.restrict_max(4);
  EXPECT_EQ(ctl.n_max(), 4);
  EXPECT_LE(ctl.next_level(), 4);
  // The controller keeps working below the new ceiling: feed it a speedup
  // curve favoring level 4 and it must converge there.
  for (int burst = 0; burst < 64 && !ctl.converged(); ++burst) {
    const int level = ctl.next_level();
    ASSERT_GE(level, 1);
    ASSERT_LE(level, 4);
    ctl.observe(1.0 / level);  // monotone: higher level, faster
  }
  EXPECT_TRUE(ctl.converged());
  EXPECT_EQ(ctl.next_level(), 4);
  // Raising the ceiling is not possible through restrict_max.
  ctl.restrict_max(12);
  EXPECT_EQ(ctl.n_max(), 4);
}

}  // namespace
}  // namespace nocs
