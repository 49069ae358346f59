// Tests for deterministic intra-simulation parallelism: the sharded
// barrier-synchronous tick must produce bit-identical SimResults for every
// sim_threads value — across plain, statically gated, dynamically gated,
// faulted, and traced runs — and a checkpoint written under one thread
// count must restore bit-identically under another.
//
// The per-port input wakes get their own cases: multi-cycle links, gated
// routers woken on arrival, and a mid-burst restore under another thread
// count.
//
// These run under the `parallel` ctest label so the ThreadSanitizer CI job
// can target exactly the multi-threaded surface.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/snapshot.hpp"
#include "common/trace.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "sprint/network_builder.hpp"

namespace nocs {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

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

struct Rig {
  std::unique_ptr<noc::RoutingPolicy> policy;
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<fault::FaultInjector> injector;
};

enum class Scheme {
  kSprint,        // CDOR sprint region, dark rest statically gated
  kFullDynamic,   // all routers on, dynamic power gating enabled
};

/// An 8x8 mesh so thread counts up to 8 give every shard at least a full
/// mesh row of nodes.
Rig make_rig(Scheme scheme, bool faults, std::uint64_t seed = 7) {
  noc::NetworkParams params;
  params.width = 8;
  params.height = 8;
  auto bundle =
      scheme == Scheme::kSprint
          ? sprint::make_noc_sprinting_network(params, 16, "uniform", seed)
          : sprint::make_full_sprinting_network(params, 16, "uniform", seed);
  Rig rig;
  rig.policy = std::move(bundle.policy);
  rig.net = std::move(bundle.network);
  if (scheme == Scheme::kFullDynamic) rig.net->set_dynamic_gating(true);
  if (faults) {
    rig.injector =
        std::make_unique<fault::FaultInjector>(params.shape(), storm_params());
    const noc::ProtectionParams prot = storm_params().protection();
    rig.net->enable_resilience(rig.injector.get(), &prot);
  }
  return rig;
}

noc::SimConfig short_sim(bool faults) {
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1200;
  sim.drain_max = 20000;
  sim.injection_rate = 0.15;
  if (faults) sim.watchdog_cycles = 50000;
  return sim;
}

noc::CheckpointConfig ckpt_for(Rig& rig, noc::CheckpointConfig c) {
  if (rig.injector != nullptr)
    c.extras.emplace_back("fault", rig.injector.get());
  return c;
}

void expect_identical(const noc::SimResults& a, const noc::SimResults& b) {
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.histogram_saturated, b.histogram_saturated);
  EXPECT_EQ(a.max_packet_latency, b.max_packet_latency);
  EXPECT_EQ(a.hung, b.hung);
  EXPECT_EQ(a.interrupted, b.interrupted);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters.buffer_writes, b.counters.buffer_writes);
  EXPECT_EQ(a.counters.buffer_reads, b.counters.buffer_reads);
  EXPECT_EQ(a.counters.xbar_traversals, b.counters.xbar_traversals);
  EXPECT_EQ(a.counters.vc_allocs, b.counters.vc_allocs);
  EXPECT_EQ(a.counters.sa_arbitrations, b.counters.sa_arbitrations);
  EXPECT_EQ(a.counters.link_flits, b.counters.link_flits);
  EXPECT_EQ(a.counters.active_cycles, b.counters.active_cycles);
  EXPECT_EQ(a.counters.gated_cycles, b.counters.gated_cycles);
  EXPECT_EQ(a.counters.waking_cycles, b.counters.waking_cycles);
  EXPECT_EQ(a.counters.wake_events, b.counters.wake_events);
  EXPECT_EQ(a.counters.idle_active_cycles, b.counters.idle_active_cycles);
  EXPECT_EQ(a.counters.flits_corrupted, b.counters.flits_corrupted);
  EXPECT_EQ(a.counters.reroutes, b.counters.reroutes);
  EXPECT_EQ(a.counters.wake_failures, b.counters.wake_failures);
  EXPECT_EQ(a.resilience.retransmissions, b.resilience.retransmissions);
  EXPECT_EQ(a.resilience.timeouts, b.resilience.timeouts);
  EXPECT_EQ(a.resilience.corrupted_packets, b.resilience.corrupted_packets);
  EXPECT_EQ(a.resilience.dropped_packets, b.resilience.dropped_packets);
  EXPECT_EQ(a.resilience.duplicates, b.resilience.duplicates);
  EXPECT_EQ(a.resilience.acks_sent, b.resilience.acks_sent);
  EXPECT_EQ(a.resilience.nacks_sent, b.resilience.nacks_sent);
}

noc::SimResults run_with_threads(int sim_threads, Scheme scheme, bool faults) {
  Rig rig = make_rig(scheme, faults);
  rig.net->set_sim_threads(sim_threads);
  EXPECT_EQ(rig.net->sim_threads(), sim_threads);
  return noc::run_simulation(*rig.net, short_sim(faults));
}

/// The core guarantee, exercised for one network/fault configuration:
/// sim_threads = 2, 4, 8 all reproduce the serial run bit-for-bit.
void check_thread_counts(Scheme scheme, bool faults, const std::string& tag) {
  SCOPED_TRACE(tag);
  const noc::SimResults reference = run_with_threads(1, scheme, faults);
  for (const int n : {2, 4, 8}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(n));
    expect_identical(run_with_threads(n, scheme, faults), reference);
  }
}

// --- bit-identical across thread counts -------------------------------------

TEST(ParallelTick, BitIdenticalSprintRegion) {
  check_thread_counts(Scheme::kSprint, /*faults=*/false, "sprint");
}

TEST(ParallelTick, BitIdenticalWithDynamicGating) {
  check_thread_counts(Scheme::kFullDynamic, /*faults=*/false, "dynamic");
}

TEST(ParallelTick, BitIdenticalWithFaults) {
  check_thread_counts(Scheme::kSprint, /*faults=*/true, "faults");
}

TEST(ParallelTick, BitIdenticalWithFaultsAndDynamicGating) {
  check_thread_counts(Scheme::kFullDynamic, /*faults=*/true, "faults_dyn");
}

// --- per-port input wakes ----------------------------------------------------
//
// A router reads only the inputs a wake has flagged, and a shard re-checks
// behind the barrier the inputs it emptied whose producer runs on another
// shard.  These cases stress what the sprint/dynamic rigs above do not:
// pipes holding several flits at once, statically gated routers woken by
// an arrival, and a restore that must re-arm every input.

enum class Wiring {
  kSlowLinks,    // every endpoint on; links take 1-3 cycles
  kDarkCrossed,  // six endpoints; XY paths cross gated, wakeable routers
};

/// An 8x8 XY mesh wired per `wiring`.  `policy` must outlive the network.
std::unique_ptr<noc::Network> make_wired(Wiring wiring,
                                         const noc::RoutingPolicy* policy) {
  noc::NetworkParams params;
  params.width = 8;
  params.height = 8;
  if (wiring == Wiring::kSlowLinks) {
    auto net = std::make_unique<noc::Network>(
        params, policy, [](NodeId a, NodeId b) { return 1 + (a + b) % 3; });
    net->set_endpoints(params.shape().all_nodes(),
                       noc::make_traffic("uniform", params.num_nodes()));
    net->set_seed(7);
    return net;
  }
  auto net = std::make_unique<noc::Network>(params, policy);
  const std::vector<NodeId> endpoints = {0, 7, 27, 36, 56, 63};
  net->set_endpoints(endpoints, noc::make_traffic("uniform", 6));
  net->set_seed(7);
  net->gate_dark_region(endpoints);
  for (NodeId id = 0; id < params.num_nodes(); ++id)
    net->router(id).set_allow_wakeup(true);
  return net;
}

noc::SimResults run_wired(Wiring wiring, int sim_threads,
                          noc::CheckpointConfig ckpt = {}) {
  const noc::XyRouting xy;
  auto net = make_wired(wiring, &xy);
  net->set_sim_threads(sim_threads);
  return noc::run_simulation(*net, short_sim(false), ckpt);
}

TEST(ParallelTick, BitIdenticalWithMultiCycleLinks) {
  const noc::SimResults reference = run_wired(Wiring::kSlowLinks, 1);
  EXPECT_GT(reference.packets_ejected, 0u);
  for (const int n : {2, 3}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(n));
    expect_identical(run_wired(Wiring::kSlowLinks, n), reference);
  }
}

TEST(ParallelTick, BitIdenticalWhenGatedRoutersWakeOnArrival) {
  const noc::SimResults reference = run_wired(Wiring::kDarkCrossed, 1);
  EXPECT_GT(reference.counters.wake_events, 0u);
  for (const int n : {2, 3}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(n));
    expect_identical(run_wired(Wiring::kDarkCrossed, n), reference);
  }
}

TEST(ParallelTick, MidBurstCheckpointOnSlowLinksRestoresAcrossThreadCounts) {
  // Cut mid-measurement, while multi-cycle links hold several flits per
  // pipe, under 3 shards; the restore re-arms every router input, so 2
  // shards and serial both finish bit-identical to the uninterrupted run.
  const Cycle cut = 300 + 600;
  const std::string path = tmp_path("parallel_slow_links.nocsnap");
  const noc::SimResults reference = run_wired(Wiring::kSlowLinks, 1);

  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = cut;
  const noc::SimResults partial = run_wired(Wiring::kSlowLinks, 3, stop);
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.cycles, cut);

  for (const int n : {2, 1}) {
    SCOPED_TRACE("restore with sim_threads=" + std::to_string(n));
    noc::CheckpointConfig resume;
    resume.restore_path = path;
    const noc::SimResults resumed = run_wired(Wiring::kSlowLinks, n, resume);
    EXPECT_FALSE(resumed.interrupted);
    expect_identical(resumed, reference);
  }
  std::remove(path.c_str());
}

// --- credit-starved links ----------------------------------------------------
//
// One- and two-flit VC buffers loaded far past saturation keep most output
// VCs at zero credits, so switch allocation hangs on the cycle each credit
// comes back, and on links of 1-3 cycles a credit's producer and consumer
// often sit on different shards.  The pins were recorded when credits
// travelled upstream in 1-cycle pipes; any change to when a returned
// credit first counts moves them.

struct StarvedPin {
  int vc_depth;
  Cycle cycles;
  std::uint64_t packets_generated;
  std::uint64_t packets_ejected;
  double avg_packet_latency;
  double avg_network_latency;
  double accepted_rate;
  std::uint64_t buffer_writes;
  std::uint64_t xbar_traversals;
  std::uint64_t vc_allocs;
  std::uint64_t sa_arbitrations;
  std::uint64_t link_flits;
  std::uint64_t active_cycles;
  std::uint64_t idle_active_cycles;
};

noc::SimResults run_starved(int vc_depth, int sim_threads) {
  noc::NetworkParams params;
  params.width = 6;
  params.height = 6;
  params.vc_depth = vc_depth;
  const noc::XyRouting xy;
  noc::Network net(params, &xy,
                   [](NodeId a, NodeId b) { return 1 + (a * 5 + b) % 3; });
  net.set_endpoints(params.shape().all_nodes(),
                    noc::make_traffic("uniform", params.num_nodes()));
  net.set_seed(5);
  net.set_sim_threads(sim_threads);
  noc::SimConfig sim;
  sim.warmup = 200;
  sim.measure = 1000;
  sim.drain_max = 1500;
  sim.injection_rate = 0.8;
  return noc::run_simulation(net, sim);
}

TEST(ParallelTick, CreditStarvedRunsMatchRecordedResults) {
  constexpr StarvedPin kPins[] = {
      {1, 2700, 5746, 1806, 1527.5526024363223, 54.756367663344427,
       0.25308333333333333, 75057, 74955, 15081, 74979, 59900, 97200, 17661},
      {2, 2700, 5746, 4805, 1006.7508844953161, 44.17086368366283,
       0.67000000000000004, 151195, 150953, 30291, 151008, 120803, 97200,
       3358},
  };
  for (const StarvedPin& want : kPins) {
    SCOPED_TRACE("vc_depth=" + std::to_string(want.vc_depth));
    const noc::SimResults reference = run_starved(want.vc_depth, 1);
    EXPECT_TRUE(reference.saturated);
    EXPECT_EQ(reference.cycles, want.cycles);
    EXPECT_EQ(reference.packets_generated, want.packets_generated);
    EXPECT_EQ(reference.packets_ejected, want.packets_ejected);
    EXPECT_EQ(reference.avg_packet_latency, want.avg_packet_latency);
    EXPECT_EQ(reference.avg_network_latency, want.avg_network_latency);
    EXPECT_EQ(reference.accepted_rate, want.accepted_rate);
    EXPECT_EQ(reference.counters.buffer_writes, want.buffer_writes);
    EXPECT_EQ(reference.counters.xbar_traversals, want.xbar_traversals);
    EXPECT_EQ(reference.counters.vc_allocs, want.vc_allocs);
    EXPECT_EQ(reference.counters.sa_arbitrations, want.sa_arbitrations);
    EXPECT_EQ(reference.counters.link_flits, want.link_flits);
    EXPECT_EQ(reference.counters.active_cycles, want.active_cycles);
    EXPECT_EQ(reference.counters.idle_active_cycles, want.idle_active_cycles);
    for (const int n : {2, 3}) {
      SCOPED_TRACE("sim_threads=" + std::to_string(n));
      expect_identical(run_starved(want.vc_depth, n), reference);
    }
  }
}

// --- tracing -----------------------------------------------------------------

TEST(ParallelTick, BitIdenticalWithTracingActive) {
  // A live trace session samples counters mid-run; it must neither perturb
  // the parallel results nor crash under sharded ticking.  (Trace event
  // *order* within a cycle is not part of the determinism contract — the
  // SimResults are.)
  const noc::SimResults reference =
      run_with_threads(1, Scheme::kSprint, false);

  const std::string path = tmp_path("parallel_trace.json");
  ASSERT_TRUE(trace::begin(path));
  Rig rig = make_rig(Scheme::kSprint, false);
  rig.net->set_sim_threads(4);
  noc::SimConfig sim = short_sim(false);
  sim.trace_sample = 64;
  const noc::SimResults traced = noc::run_simulation(*rig.net, sim);
  EXPECT_GT(trace::event_count(), 0u);
  ASSERT_TRUE(trace::end());

  expect_identical(traced, reference);
  std::remove(path.c_str());
}

// --- checkpoint/restore across thread counts ---------------------------------

TEST(ParallelTick, CheckpointUnderFourThreadsRestoresUnderTwo) {
  // Write a checkpoint mid-measurement while ticking with 4 shards, then
  // restore it into a 2-shard network (and a serial one): the conservative
  // scheduler reset on load_state makes the thread count a pure execution
  // detail, so both must finish bit-identical to the uninterrupted serial
  // run.
  const noc::SimConfig sim = short_sim(false);
  const Cycle cut = 300 + 600;
  const std::string path = tmp_path("parallel_resume.nocsnap");

  const noc::SimResults reference =
      run_with_threads(1, Scheme::kSprint, false);

  Rig first = make_rig(Scheme::kSprint, false);
  first.net->set_sim_threads(4);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = cut;
  const noc::SimResults partial =
      noc::run_simulation(*first.net, sim, ckpt_for(first, stop));
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.cycles, cut);

  for (const int n : {2, 1}) {
    SCOPED_TRACE("restore with sim_threads=" + std::to_string(n));
    Rig second = make_rig(Scheme::kSprint, false);
    second.net->set_sim_threads(n);
    noc::CheckpointConfig resume;
    resume.restore_path = path;
    const noc::SimResults resumed =
        noc::run_simulation(*second.net, sim, ckpt_for(second, resume));
    EXPECT_FALSE(resumed.interrupted);
    expect_identical(resumed, reference);
  }
  std::remove(path.c_str());
}

TEST(ParallelTick, FaultedCheckpointRestoresAcrossThreadCounts) {
  const noc::SimConfig sim = short_sim(true);
  const Cycle cut = 300 + 600;
  const std::string path = tmp_path("parallel_resume_faults.nocsnap");

  const noc::SimResults reference = run_with_threads(1, Scheme::kSprint, true);

  Rig first = make_rig(Scheme::kSprint, true);
  first.net->set_sim_threads(2);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = cut;
  const noc::SimResults partial =
      noc::run_simulation(*first.net, sim, ckpt_for(first, stop));
  ASSERT_TRUE(partial.interrupted);

  Rig second = make_rig(Scheme::kSprint, true);
  second.net->set_sim_threads(4);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  const noc::SimResults resumed =
      noc::run_simulation(*second.net, sim, ckpt_for(second, resume));
  EXPECT_FALSE(resumed.interrupted);
  expect_identical(resumed, reference);
  std::remove(path.c_str());
}

// --- API edges ----------------------------------------------------------------

TEST(ParallelTick, ThreadCountClampsToNodeCount) {
  Rig rig = make_rig(Scheme::kSprint, false);
  rig.net->set_sim_threads(100);  // 64 nodes -> at most 64 id-range shards
  EXPECT_EQ(rig.net->sim_threads(), 64);
  rig.net->set_sim_threads(3);    // uneven id split is fine
  EXPECT_EQ(rig.net->sim_threads(), 3);
  expect_identical(noc::run_simulation(*rig.net, short_sim(false)),
                   run_with_threads(1, Scheme::kSprint, false));
}

TEST(ParallelTick, SwitchingThreadCountMidRunStaysDeterministic) {
  // set_sim_threads at a cycle boundary is legal (conservative reset); a
  // run that flips 1 -> 4 -> 2 between bursts matches the all-serial run.
  const auto run_phased = [](const std::vector<int>& threads_per_leg) {
    Rig rig = make_rig(Scheme::kSprint, false);
    rig.net->set_injection_rate(0.15);
    for (const int n : threads_per_leg) {
      rig.net->set_sim_threads(n);
      rig.net->run(500);
    }
    rig.net->set_injection_rate(0.0);
    Cycle budget = 100000;
    while (!rig.net->drained() && budget-- > 0) rig.net->tick();
    EXPECT_TRUE(rig.net->drained());
    return rig.net->total_counters().link_flits;
  };
  EXPECT_EQ(run_phased({1, 4, 2}), run_phased({1, 1, 1}));
}

TEST(ParallelTick, ReshardingMidRunMatchesSerial) {
  // A 6x6 mesh re-sharded 1 -> 3 -> 2 -> 5 inside one run.  Each rebuild
  // re-marks which router inputs another shard feeds.  Three and two
  // shards cut between rows; five cut inside rows, so some same-row links
  // cross too.  Every router counter and the SimResults must match the
  // serial run.
  const auto run = [](bool reshard) {
    noc::NetworkParams params;
    params.width = 6;
    params.height = 6;
    auto bundle =
        sprint::make_full_sprinting_network(params, 36, "uniform", 11);
    noc::Network& net = *bundle.network;
    if (reshard) {
      net.set_pre_tick_hook([&net](Cycle now) {
        if (now == 200) net.set_sim_threads(3);
        if (now == 700) net.set_sim_threads(2);
        if (now == 1100) net.set_sim_threads(5);
      });
    }
    noc::SimResults res = noc::run_simulation(net, short_sim(false));
    EXPECT_EQ(net.sim_threads(), reshard ? 5 : 1);
    return std::make_pair(res, net.per_router_counters());
  };
  const auto [serial, serial_routers] = run(false);
  const auto [sharded, sharded_routers] = run(true);
  expect_identical(serial, sharded);
  ASSERT_EQ(serial_routers.size(), sharded_routers.size());
  static_assert(
      std::has_unique_object_representations_v<noc::RouterCounters>);
  for (std::size_t i = 0; i < serial_routers.size(); ++i)
    EXPECT_EQ(std::memcmp(&serial_routers[i], &sharded_routers[i],
                          sizeof(noc::RouterCounters)),
              0)
        << "router " << i;
}

TEST(ParallelTick, DefaultThreadCountReadsEnvironment) {
  EXPECT_GE(default_sim_thread_count(), 1);
}

// --- drained() fast path -------------------------------------------------------

TEST(ParallelTick, DrainedShortCircuitAgreesWithScan) {
  // drained() short-circuits through the live-activity counters; under
  // NOCS_ASSERT (on in test builds) every fast-path "drained" answer is
  // re-verified against the full O(n) scan, so simply exercising it across
  // load and quiescence — serial and sharded — proves agreement.
  for (const int n : {1, 4}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(n));
    Rig rig = make_rig(Scheme::kSprint, false);
    rig.net->set_sim_threads(n);
    rig.net->set_injection_rate(0.2);
    rig.net->run(400);
    rig.net->set_injection_rate(0.0);
    Cycle budget = 100000;
    while (!rig.net->drained() && budget-- > 0) rig.net->tick();
    EXPECT_TRUE(rig.net->drained());
  }
}

}  // namespace
}  // namespace nocs
