// Tests for the warmup/measure/drain simulation driver.
#include <gtest/gtest.h>

#include "noc/simulator.hpp"

namespace nocs::noc {
namespace {

struct NetFixture {
  NetFixture() : net(params(), &xy) {
    net.set_endpoints(net.params().shape().all_nodes(),
                      make_traffic("uniform", 16));
    net.set_seed(77);
  }
  static NetworkParams params() {
    NetworkParams p;
    p.width = 4;
    p.height = 4;
    return p;
  }
  XyRouting xy;
  Network net;
};

TEST(Simulator, DrainsAndReportsAtModerateLoad) {
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 3000;
  cfg.injection_rate = 0.1;
  const SimResults r = run_simulation(f.net, cfg);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.packets_generated, 0u);
  EXPECT_EQ(r.packets_ejected, r.packets_generated);
  EXPECT_GT(r.avg_packet_latency, 0.0);
  EXPECT_GE(r.avg_packet_latency, r.avg_network_latency);
  EXPECT_GT(r.avg_hops, 0.0);
  EXPECT_GE(r.cycles, cfg.warmup + cfg.measure);
}

TEST(Simulator, AcceptedTracksOfferedBelowSaturation) {
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 5000;
  for (double rate : {0.05, 0.15, 0.3}) {
    cfg.injection_rate = rate;
    const SimResults r = run_simulation(f.net, cfg);
    EXPECT_NEAR(r.accepted_rate, rate, 0.25 * rate) << "rate " << rate;
  }
}

TEST(Simulator, AcceptedRateNormalizesByMeasureWindowOnly) {
  // Regression: accepted_rate used to divide by measure + drain cycles,
  // understating throughput whenever draining took a while.  Only flits
  // generated inside the measurement window are tagged, so the correct
  // base is the window length times the active-endpoint count — exactly.
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 4000;
  cfg.injection_rate = 0.3;  // busy enough that the drain tail is nonzero
  const SimResults r = run_simulation(f.net, cfg);
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.cycles, cfg.warmup + cfg.measure) << "load too low to drain";
  const double expected =
      static_cast<double>(f.net.stats().ejected_flits()) /
      (static_cast<double>(cfg.measure) *
       static_cast<double>(f.net.endpoints().size()));
  EXPECT_EQ(r.accepted_rate, expected);
}

TEST(Simulator, LatencyMonotonicInLoad) {
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 4000;
  double prev = 0.0;
  for (double rate : {0.05, 0.2, 0.4, 0.55}) {
    cfg.injection_rate = rate;
    const SimResults r = run_simulation(f.net, cfg);
    EXPECT_GT(r.avg_packet_latency, prev) << "rate " << rate;
    prev = r.avg_packet_latency;
  }
}

TEST(Simulator, SaturatesAtAbsurdLoad) {
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 200;
  cfg.measure = 3000;
  cfg.drain_max = 2000;  // tight drain budget
  cfg.injection_rate = 0.95;
  const SimResults r = run_simulation(f.net, cfg);
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.packets_ejected, r.packets_generated);
}

TEST(Simulator, ZeroLoadHasZeroLoadLatency) {
  // At a vanishing injection rate, latency approaches the no-contention
  // pipeline bound: ~6 cycles per hop plus serialization.
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 1000;
  cfg.measure = 30000;
  cfg.injection_rate = 0.005;
  const SimResults r = run_simulation(f.net, cfg);
  ASSERT_FALSE(r.saturated);
  // 4x4 uniform average hop distance ~2.67; each hop costs 6 cycles
  // (5-stage + link); +NI injection/ejection and 4 cycles tail
  // serialization: roughly 24-27 cycles.
  EXPECT_GT(r.avg_packet_latency, 15.0);
  EXPECT_LT(r.avg_packet_latency, 32.0);
}

TEST(Simulator, LatencyPercentilesBracketTheMean) {
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 6000;
  cfg.injection_rate = 0.2;
  const SimResults r = run_simulation(f.net, cfg);
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.p50_latency, 0.0);
  EXPECT_GE(r.p99_latency, r.p50_latency);
  // Histogram quantiles are bin-edge estimates: allow one bin of slack.
  EXPECT_LE(r.p50_latency, r.avg_packet_latency + 4.0);
  EXPECT_GT(r.p99_latency, r.avg_packet_latency);
}

TEST(Simulator, TailLatencyGrowsFasterThanMedianNearSaturation) {
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 6000;
  cfg.injection_rate = 0.05;
  const SimResults low = run_simulation(f.net, cfg);
  cfg.injection_rate = 0.5;
  const SimResults high = run_simulation(f.net, cfg);
  ASSERT_FALSE(high.saturated);
  EXPECT_GT(high.p99_latency - high.p50_latency,
            low.p99_latency - low.p50_latency);
}

TEST(Simulator, CountersResetPerRun) {
  NetFixture f;
  SimConfig cfg;
  cfg.warmup = 100;
  cfg.measure = 500;
  cfg.injection_rate = 0.1;
  const SimResults a = run_simulation(f.net, cfg);
  const SimResults b = run_simulation(f.net, cfg);
  // Same order of magnitude — counters did not accumulate across runs.
  EXPECT_LT(static_cast<double>(b.counters.buffer_writes),
            2.0 * static_cast<double>(a.counters.buffer_writes) + 100.0);
}

}  // namespace
}  // namespace nocs::noc
