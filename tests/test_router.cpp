// Cycle-level tests for the five-stage router: pipeline timing, credit
// flow, wormhole ordering, the power-gating state machine, and a router
// wider than one 64-bit stage-mask word.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "noc/router.hpp"
#include "noc/simulator.hpp"
#include "sprint/network_builder.hpp"

namespace nocs::noc {
namespace {

/// Sets a router input bit on every push into an empty log.  Without a
/// network's wake wheel the bit is set at push time rather than at the
/// value's ready time, which only makes the router read the log early.
struct InputSink final : WakeSink {
  Router* router = nullptr;
  int bit = 0;
  void on_push(Cycle) override { router->note_input(bit); }
};

/// Harness wiring one router's inputs and outputs to test channels, and
/// each input's returned credits to a per-VC upstream counter starting at
/// 0.  It plays every sender (writing each injected flit into the router's
/// input slot at its own per-VC tail) and every receiver (its output
/// ports' VC rings, read in arrival order).
class RouterHarness {
 public:
  explicit RouterHarness(NodeId id = 5, NetworkParams params = {})
      : params_(params),
        topo_(Topology::mesh(params.width, params.height)),
        state_(new_line_block(
            Router::storage_bytes(params, topo_.num_ports(id)))),
        router_(id, params, topo_, &xy_, state_.get()) {
    // Test channels hold everything a test pushes or the router sends
    // before the test reads it.
    constexpr int kCapacity = 64;
    const auto nv = static_cast<std::size_t>(params.num_vcs);
    for (int p = 0; p < kNumPorts; ++p) {
      in_logs_.emplace_back(ArrivalLog::make(1, kCapacity));
      in_tails_.emplace_back(nv, 0);
      upstream_credits_.emplace_back(nv, std::int16_t{0});
      router_.connect_input(static_cast<Port>(p), in_logs_.back().get(),
                            upstream_credits_.back().data());
      sinks_[p].router = &router_;
      sinks_[p].bit = p;
      in_logs_.back()->set_sink(&sinks_[p]);
      out_logs_.emplace_back(ArrivalLog::make(1, kCapacity));
      out_rings_.emplace_back(nv * static_cast<std::size_t>(params.vc_depth));
      out_heads_.emplace_back(nv, 0);
      if (p != static_cast<int>(Port::kLocal))
        router_.connect_output(static_cast<Port>(p), out_logs_.back().get(),
                               out_rings_.back().data());
    }
    router_.connect_ejection(eject_.get());
  }
  RouterHarness(const RouterHarness&) = delete;
  RouterHarness& operator=(const RouterHarness&) = delete;

  /// Sends one flit into `port` at the current cycle: into the input slot
  /// its VC's next credit reserves, with its arrival on the port's log.
  void inject(Port port, const Flit& f) {
    const auto p = static_cast<std::size_t>(port);
    int& tail = in_tails_[p][static_cast<std::size_t>(f.vc)];
    router_.input_slots(static_cast<int>(port))[f.vc * params_.vc_depth +
                                                tail] = f;
    tail = (tail + 1) % params_.vc_depth;
    in_logs_[p]->push(now_, f.vc);
  }

  /// One cycle: the router's tick, then the credit return the network
  /// runs behind its phase barrier.
  void tick() {
    tick_without_credit_return();
    router_.return_credits();
  }
  void tick_without_credit_return() { router_.tick(now_++); }

  /// Ticks until `port` has output a flit or `budget` cycles pass.
  bool tick_until_output(Port port, int budget) {
    for (int i = 0; i < budget; ++i) {
      if (output_ready(port)) return true;
      tick();
    }
    return output_ready(port);
  }

  Flit take_output(Port port) {
    if (port == Port::kLocal) return eject_->pop(now_);
    const auto p = static_cast<std::size_t>(port);
    const VcId vc = out_logs_[p]->pop(now_);
    int& head = out_heads_[p][static_cast<std::size_t>(vc)];
    const Flit f = out_rings_[p][static_cast<std::size_t>(
        vc * params_.vc_depth + head)];
    head = (head + 1) % params_.vc_depth;
    return f;
  }

  /// Credits the router has returned for input `port`'s VC `vc`.
  int credits_returned(Port port, VcId vc) const {
    return upstream_credits_[static_cast<std::size_t>(port)]
                            [static_cast<std::size_t>(vc)];
  }

  Cycle now() const { return now_; }
  Router& router() { return router_; }

  Flit make_flit(NodeId dst, VcId vc, bool head = true, bool tail = true,
                 int index = 0) {
    Flit f;
    f.index = index;
    f.is_head = head;
    f.is_tail = tail;
    f.dst = dst;
    f.vc = vc;
    return f;
  }

 private:
  bool output_ready(Port port) const {
    return port == Port::kLocal
               ? eject_->ready(now_)
               : out_logs_[static_cast<std::size_t>(port)]->ready(now_);
  }

  NetworkParams params_;
  Topology topo_;
  XyRouting xy_;
  LineBlock state_;
  Router router_;
  Cycle now_ = 0;
  std::vector<ArrivalLog::Owner> in_logs_;
  std::vector<std::vector<int>> in_tails_;
  std::vector<std::vector<std::int16_t>> upstream_credits_;
  std::vector<ArrivalLog::Owner> out_logs_;
  std::vector<std::vector<Flit>> out_rings_;
  std::vector<std::vector<int>> out_heads_;
  Pipe<Flit>::Owner eject_ = Pipe<Flit>::make(1, 64);
  std::array<InputSink, kNumPorts> sinks_;
};

TEST(Router, FiveStagePipelineLatency) {
  RouterHarness h;  // node 5 = (1,1) in the 4x4 mesh
  // Destination (3,1): XY routes east.
  h.inject(Port::kLocal, h.make_flit(/*dst=*/7, /*vc=*/0));
  // Inject at cycle 0, link latency 1 => BW at cycle 1; RC 2; VA 3; SA 4;
  // ST 5 => flit on the output pipe, visible downstream at cycle 6.
  ASSERT_TRUE(h.tick_until_output(Port::kEast, 20));
  EXPECT_EQ(h.now(), 6u);
  const Flit out = h.take_output(Port::kEast);
  EXPECT_EQ(out.dst, 7);
  EXPECT_EQ(out.hops, 1);
}

TEST(Router, HopCountOverflowDies) {
  // Flit::hops is an int16: the link traversal that would wrap it aborts.
  RouterHarness h;
  Flit f = h.make_flit(/*dst=*/7, /*vc=*/0);
  f.hops = kMaxHops - 1;
  h.inject(Port::kLocal, f);
  ASSERT_TRUE(h.tick_until_output(Port::kEast, 20));
  EXPECT_EQ(h.take_output(Port::kEast).hops, kMaxHops);

  RouterHarness full;
  f.hops = kMaxHops;
  full.inject(Port::kLocal, f);
  EXPECT_DEATH(full.tick_until_output(Port::kEast, 20), "invariant");
}

TEST(Router, RoutesEachDirectionAndLocal) {
  struct Case { NodeId dst; Port expect; };
  const Case cases[] = {
      {7, Port::kEast},   // (3,1) east of (1,1)
      {4, Port::kWest},   // (0,1)
      {1, Port::kNorth},  // (1,0)
      {13, Port::kSouth}, // (1,3)
      {5, Port::kLocal},  // self: ejects to the local port
  };
  for (const Case& c : cases) {
    RouterHarness h;
    h.inject(c.dst == 5 ? Port::kWest : Port::kLocal,
             h.make_flit(c.dst, 0));
    ASSERT_TRUE(h.tick_until_output(c.expect, 20))
        << "dst " << c.dst << " expected " << to_string(c.expect);
  }
}

TEST(Router, CreditReturnedWhenFlitLeavesBuffer) {
  RouterHarness h;
  h.inject(Port::kLocal, h.make_flit(7, 2));
  // BW at cycle 1, RC 2, VA 3, SA 4: nothing has left the buffer yet.
  for (int i = 0; i < 5; ++i) h.tick();
  EXPECT_EQ(h.credits_returned(Port::kLocal, 2), 0);
  // ST at cycle 5 frees the slot, but its credit reaches the upstream
  // counter only with the return behind the phase barrier, so the sender
  // can first spend it at cycle 6.
  h.tick_without_credit_return();
  EXPECT_EQ(h.credits_returned(Port::kLocal, 2), 0);
  h.router().return_credits();
  EXPECT_EQ(h.credits_returned(Port::kLocal, 2), 1);
  EXPECT_EQ(h.credits_returned(Port::kLocal, 0), 0);
  // Returned once: a later cycle frees nothing more.
  h.tick();
  EXPECT_EQ(h.credits_returned(Port::kLocal, 2), 1);
}

TEST(Router, WormholeKeepsPacketContiguousOnVc) {
  RouterHarness h;
  // 3-flit packet: head, body, tail on VC 2.
  h.inject(Port::kLocal, h.make_flit(7, 2, true, false, 0));
  h.tick();
  h.inject(Port::kLocal, h.make_flit(7, 2, false, false, 1));
  h.tick();
  h.inject(Port::kLocal, h.make_flit(7, 2, false, true, 2));
  int received = 0;
  VcId out_vc = -1;
  for (int i = 0; i < 30 && received < 3; ++i) {
    if (h.tick_until_output(Port::kEast, 30 - i)) {
      const Flit f = h.take_output(Port::kEast);
      EXPECT_EQ(f.index, received);  // in order
      if (received == 0)
        out_vc = f.vc;  // VA picks the downstream VC freely...
      else
        EXPECT_EQ(f.vc, out_vc);  // ...but the whole packet stays on it
      ++received;
    }
  }
  EXPECT_EQ(received, 3);
  EXPECT_TRUE(h.router().drained());
}

TEST(Router, BackToBackPacketsOnSameVc) {
  RouterHarness h;
  // Two single-flit packets on VC 1; second head queues behind first tail.
  h.inject(Port::kLocal, h.make_flit(7, 1));
  h.tick();
  h.inject(Port::kLocal, h.make_flit(7, 1));
  int received = 0;
  for (int i = 0; i < 40 && received < 2; ++i) {
    if (h.tick_until_output(Port::kEast, 40)) {
      h.take_output(Port::kEast);
      ++received;
    }
  }
  EXPECT_EQ(received, 2);
}

TEST(Router, StallsWithoutDownstreamCredits) {
  NetworkParams p;
  p.vc_depth = 1;  // single credit per VC
  RouterHarness h(5, p);
  // Two single-flit packets on the same VC; the downstream credit is never
  // returned, so only one flit may leave.
  h.inject(Port::kLocal, h.make_flit(7, 0));
  ASSERT_TRUE(h.tick_until_output(Port::kEast, 20));
  h.take_output(Port::kEast);
  h.inject(Port::kLocal, h.make_flit(7, 0));
  EXPECT_FALSE(h.tick_until_output(Port::kEast, 20));  // stalled
  EXPECT_GT(h.router().buffered_flits(), 0);
}

TEST(Router, CountersTrackActivity) {
  RouterHarness h;
  h.inject(Port::kLocal, h.make_flit(7, 0));
  ASSERT_TRUE(h.tick_until_output(Port::kEast, 20));
  const RouterCounters& c = h.router().counters();
  EXPECT_EQ(c.buffer_writes, 1u);
  EXPECT_EQ(c.buffer_reads, 1u);
  EXPECT_EQ(c.xbar_traversals, 1u);
  EXPECT_EQ(c.vc_allocs, 1u);
  EXPECT_EQ(c.sa_arbitrations, 1u);
  EXPECT_EQ(c.link_flits, 1u);
  EXPECT_EQ(c.active_cycles, h.now());
  EXPECT_EQ(c.gated_cycles, 0u);
}

TEST(Router, EjectedFlitsDoNotCountAsLinkTraversals) {
  RouterHarness h;
  h.inject(Port::kWest, h.make_flit(5, 0));  // destined to this node
  ASSERT_TRUE(h.tick_until_output(Port::kLocal, 20));
  const Flit f = h.take_output(Port::kLocal);
  EXPECT_EQ(f.hops, 0);  // local ejection adds no hop
  EXPECT_EQ(h.router().counters().link_flits, 0u);
}

TEST(Router, StaticGatingBlocksAndCounts) {
  RouterHarness h;
  h.router().set_gated(true);
  EXPECT_EQ(h.router().power_state(), PowerState::kGated);
  for (int i = 0; i < 10; ++i) h.tick();
  EXPECT_EQ(h.router().counters().gated_cycles, 10u);
  EXPECT_EQ(h.router().counters().active_cycles, 0u);
}

TEST(Router, ArrivalAtStaticallyGatedRouterDies) {
  RouterHarness h;
  h.router().set_gated(true);
  h.inject(Port::kWest, h.make_flit(7, 0));
  h.tick();  // flit not yet visible (link latency)
  EXPECT_DEATH(h.tick(), "precondition");
}

TEST(Router, WakeOnArrivalAfterLatency) {
  NetworkParams p;
  p.wakeup_latency = 5;
  RouterHarness h(5, p);
  h.router().set_allow_wakeup(true);
  h.router().set_gated(true);
  h.inject(Port::kWest, h.make_flit(7, 0));
  ASSERT_TRUE(h.tick_until_output(Port::kEast, 40));
  const RouterCounters& c = h.router().counters();
  EXPECT_EQ(c.wake_events, 1u);
  EXPECT_EQ(c.waking_cycles, 5u);
  // Total latency = gated detection + wake + normal pipeline.
  EXPECT_GE(h.now(), 6u + 5u);
}

TEST(Router, DynamicGatingEngagesAfterIdleThreshold) {
  NetworkParams p;
  p.gate_idle_threshold = 4;
  RouterHarness h(5, p);
  h.router().set_dynamic_gating(true);
  for (int i = 0; i < 10; ++i) h.tick();
  EXPECT_EQ(h.router().power_state(), PowerState::kGated);
  EXPECT_GT(h.router().counters().gated_cycles, 0u);
}

TEST(Router, DrainedReflectsBufferedState) {
  RouterHarness h;
  EXPECT_TRUE(h.router().drained());
  h.inject(Port::kLocal, h.make_flit(7, 0));
  h.tick();
  h.tick();  // flit buffered now
  EXPECT_FALSE(h.router().drained());
  ASSERT_TRUE(h.tick_until_output(Port::kEast, 20));
  EXPECT_TRUE(h.router().drained());
}

TEST(Router, GatingRequiresDrained) {
  RouterHarness h;
  h.inject(Port::kLocal, h.make_flit(7, 0));
  h.tick();
  h.tick();
  EXPECT_DEATH(h.router().set_gated(true), "precondition");
}

// --- wide routers: more input-VC slots than one mask word -------------------

// Hamming 8x8 gives every router 15 ports; 8 VCs per port make 120 input-VC
// slots, so the stage masks span two words and slots >= 64 carry traffic.
// Two message classes (request/reply) exercise the class-partitioned VC
// allocation across the word boundary.
SimResults run_wide(int sim_threads, const CheckpointConfig& ckpt = {}) {
  NetworkParams p;
  p.width = 8;
  p.height = 8;
  p.num_vcs = 8;
  p.num_classes = 2;
  const sprint::NetworkBundle b = sprint::make_sprinting_network(
      p, Topology::hamming(8, 8), sprint::NetworkScheme::kNoc, 64, "uniform",
      13);
  EXPECT_EQ(b.network->router(0).num_ports() * p.num_vcs, 120);
  b.network->set_request_reply(/*request_length=*/1, /*reply_length=*/5);
  b.network->set_sim_threads(sim_threads);
  SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1500;
  sim.drain_max = 20000;
  sim.injection_rate = 0.1;
  SimResults r = run_simulation(*b.network, sim, ckpt);
  // The run's summed counters are the network's, read after the run.
  const RouterCounters c = b.network->total_counters();
  EXPECT_EQ(c.buffer_writes, r.counters.buffer_writes);
  EXPECT_EQ(c.vc_allocs, r.counters.vc_allocs);
  EXPECT_EQ(c.sa_arbitrations, r.counters.sa_arbitrations);
  EXPECT_EQ(c.idle_active_cycles, r.counters.idle_active_cycles);
  return r;
}

void expect_same_run(const SimResults& a, const SimResults& b) {
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.max_packet_latency, b.max_packet_latency);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters.buffer_writes, b.counters.buffer_writes);
  EXPECT_EQ(a.counters.buffer_reads, b.counters.buffer_reads);
  EXPECT_EQ(a.counters.xbar_traversals, b.counters.xbar_traversals);
  EXPECT_EQ(a.counters.vc_allocs, b.counters.vc_allocs);
  EXPECT_EQ(a.counters.sa_arbitrations, b.counters.sa_arbitrations);
  EXPECT_EQ(a.counters.link_flits, b.counters.link_flits);
  EXPECT_EQ(a.counters.active_cycles, b.counters.active_cycles);
  EXPECT_EQ(a.counters.idle_active_cycles, b.counters.idle_active_cycles);
}

TEST(WideRouter, RequestReplyOnHammingMatchesRecordedRun) {
  const SimResults r = run_wide(1);
  EXPECT_FALSE(r.saturated);
  EXPECT_FALSE(r.hung);
  EXPECT_EQ(r.avg_packet_latency, 37.854586589880725);
  EXPECT_EQ(r.avg_network_latency, 21.136415055532723);
  EXPECT_EQ(r.p50_latency, 33.337526205450736);
  EXPECT_EQ(r.p99_latency, 114.40000000000001);
  EXPECT_EQ(r.avg_hops, 1.7745783628136613);
  EXPECT_EQ(r.packets_generated, 19448u);
  EXPECT_EQ(r.packets_ejected, 19448u);
  EXPECT_EQ(r.accepted_rate, 0.60633333333333328);
  EXPECT_EQ(r.max_packet_latency, 187);
  EXPECT_EQ(r.cycles, 1920u);
  EXPECT_EQ(r.counters.buffer_writes, 201284u);
  EXPECT_EQ(r.counters.buffer_reads, 200646u);
  EXPECT_EQ(r.counters.xbar_traversals, 200646u);
  EXPECT_EQ(r.counters.vc_allocs, 67518u);
  EXPECT_EQ(r.counters.sa_arbitrations, 200753u);
  EXPECT_EQ(r.counters.link_flits, 128628u);
  EXPECT_EQ(r.counters.active_cycles, 122880u);
  EXPECT_EQ(r.counters.idle_active_cycles, 2987u);
}

TEST(WideRouter, ShardedTickMatchesSerial) {
  expect_same_run(run_wide(4), run_wide(1));
}

TEST(WideRouter, MidFlightResumeIsBitIdentical) {
  // Restoring rebuilds the stage masks from the saved per-VC stages; a
  // cut in the measurement window leaves many VCs mid-packet.
  const std::string path = ::testing::TempDir() + "wide_router.nocsnap";
  CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = 300 + 700;
  const SimResults partial = run_wide(1, stop);
  ASSERT_TRUE(partial.interrupted);
  CheckpointConfig resume;
  resume.restore_path = path;
  const SimResults resumed = run_wide(1, resume);
  EXPECT_FALSE(resumed.interrupted);
  expect_same_run(resumed, run_wide(1));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nocs::noc
