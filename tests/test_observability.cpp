// Observability-layer integration tests: the JSON value type, the metrics
// registry, Chrome trace emission, and `report=` run reports.  The core
// guarantees under test:
//   - trace files are well-formed Chrome trace-event JSON,
//   - metrics snapshots agree with the StatsCollector ground truth,
//   - SimResults/CosimResult reports round-trip through parse() exactly,
//   - tracing never perturbs simulation results (bit-identical runs).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "noc/simulator.hpp"
#include "noc/stats_collector.hpp"
#include "sprint/cosim.hpp"
#include "sprint/network_builder.hpp"

namespace nocs {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// --- json ------------------------------------------------------------------

TEST(Json, BuildDumpParseRoundTrip) {
  json::Value doc = json::Value::object();
  doc.set("name", "nocs");
  doc.set("count", 42);
  doc.set("pi", 3.25);
  doc.set("ok", true);
  doc.set("none", json::Value());
  json::Value arr = json::Value::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(false);
  doc.set("arr", std::move(arr));

  for (int indent : {0, 2}) {
    const json::Value back = json::Value::parse(doc.dump(indent));
    EXPECT_EQ(back.at("name").as_string(), "nocs");
    EXPECT_EQ(back.at("count").as_number(), 42.0);
    EXPECT_EQ(back.at("pi").as_number(), 3.25);
    EXPECT_TRUE(back.at("ok").as_bool());
    EXPECT_TRUE(back.at("none").is_null());
    ASSERT_EQ(back.at("arr").size(), 3u);
    EXPECT_EQ(back.at("arr").at(std::size_t{1}).as_string(), "two");
  }
}

TEST(Json, PreservesInsertionOrder) {
  json::Value doc = json::Value::object();
  doc.set("zeta", 1);
  doc.set("alpha", 2);
  doc.set("mid", 3);
  const json::Value back = json::Value::parse(doc.dump());
  const auto& m = back.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "zeta");
  EXPECT_EQ(m[1].first, "alpha");
  EXPECT_EQ(m[2].first, "mid");
}

TEST(Json, NumbersRoundTripExactly) {
  for (double d : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0, 123456789.0,
                   2.2250738585072014e-308}) {
    const json::Value v = json::Value::parse(json::format_number(d));
    EXPECT_EQ(v.as_number(), d) << "for " << d;
  }
}

TEST(Json, StringEscapes) {
  json::Value doc = json::Value::object();
  doc.set("s", std::string("quote\" slash\\ tab\t nl\n ctrl\x01"));
  const json::Value back = json::Value::parse(doc.dump());
  EXPECT_EQ(back.at("s").as_string(), "quote\" slash\\ tab\t nl\n ctrl\x01");
  EXPECT_EQ(json::Value::parse("\"\\u0041\\u00e9\"").as_string(),
            "A\xc3\xa9");  // \u escapes decode to UTF-8
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2",
                          "\"unterminated", "{\"a\" 1}", "nulll"}) {
    EXPECT_THROW(json::Value::parse(bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(json::Value(1.0).as_string(), std::invalid_argument);
  EXPECT_THROW(json::Value("x").at("missing"), std::invalid_argument);
}

// --- metrics registry ------------------------------------------------------

TEST(Metrics, RegistryOwnsAndReturnsStableObjects) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.count");
  c.inc();
  reg.counter("a.count").inc(4);  // same object by name
  EXPECT_EQ(c.value(), 5u);
  reg.gauge("a.gauge").set(2.5);
  reg.histogram("a.hist").add(3.0);
  EXPECT_EQ(reg.size(), 3u);

  ASSERT_NE(reg.find_counter("a.count"), nullptr);
  EXPECT_EQ(reg.find_counter("a.count")->value(), 5u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("a.gauge")->value(), 2.5);
  EXPECT_EQ(reg.find_histogram("a.hist")->total(), 1u);
}

TEST(Metrics, SnapshotSerializesAllFamilies) {
  MetricsRegistry reg;
  reg.counter("events").set(7);
  reg.gauge("temp").set(318.5);
  Histogram& h = reg.histogram("lat", 2.0, 8);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i));

  const json::Value snap = json::Value::parse(reg.to_json().dump(2));
  EXPECT_EQ(snap.at("counters").at("events").as_number(), 7.0);
  EXPECT_EQ(snap.at("gauges").at("temp").as_number(), 318.5);
  const json::Value& lat = snap.at("histograms").at("lat");
  EXPECT_EQ(lat.at("count").as_number(), 10.0);
  EXPECT_GT(lat.at("p99").as_number(), lat.at("p50").as_number());

  const std::string path = tmp_path("metrics.json");
  ASSERT_TRUE(reg.write_json(path));
  EXPECT_NO_THROW(json::Value::parse(slurp(path)));
  std::remove(path.c_str());
}

// --- stats collector -------------------------------------------------------

// Regression: packets with msg_class outside [0, kMaxStatClasses) were
// silently dropped from per-class statistics; they must land in the
// unclassified bucket so class totals always sum to the packet count.
TEST(StatsCollector, UnclassifiedBucketCatchesOutOfRangeClasses) {
  noc::StatsCollector s;
  s.on_packet_ejected(10.0, 8.0, 2, 0);
  s.on_packet_ejected(20.0, 18.0, 3, noc::kMaxStatClasses);  // one past end
  s.on_packet_ejected(30.0, 28.0, 4, -1);                    // negative
  s.on_packet_ejected(40.0, 38.0, 5, 1000);                  // way out

  EXPECT_EQ(s.class_latency(0).count(), 1u);
  EXPECT_EQ(s.unclassified_latency().count(), 3u);
  EXPECT_DOUBLE_EQ(s.unclassified_latency().mean(), 30.0);

  std::uint64_t classed = s.unclassified_latency().count();
  for (int c = 0; c < noc::kMaxStatClasses; ++c)
    classed += s.class_latency(c).count();
  EXPECT_EQ(classed, s.ejected_packets());
}

TEST(StatsCollectorDeathTest, ClassLatencyRejectsOutOfRangeIndex) {
  noc::StatsCollector s;
  EXPECT_DEATH((void)s.class_latency(noc::kMaxStatClasses), "precondition");
  EXPECT_DEATH((void)s.class_latency(-1), "precondition");
}

TEST(StatsCollector, MetricsSnapshotMatchesGroundTruth) {
  noc::StatsCollector s;
  for (int i = 0; i < 50; ++i) {
    s.on_packet_generated();
    s.on_packet_ejected(10.0 + i, 8.0 + i, 3, i % 2);
    s.on_flit_ejected();
  }
  s.resilience().retransmissions = 4;
  s.resilience().acks_sent = 50;

  MetricsRegistry reg;
  s.export_metrics(reg);
  EXPECT_EQ(reg.find_counter("noc.packets_generated")->value(),
            s.generated_packets());
  EXPECT_EQ(reg.find_counter("noc.packets_ejected")->value(),
            s.ejected_packets());
  EXPECT_EQ(reg.find_counter("noc.unclassified_packets")->value(), 0u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("noc.packet_latency.mean")->value(),
                   s.packet_latency().mean());
  EXPECT_DOUBLE_EQ(reg.find_gauge("noc.packet_latency.p99")->value(),
                   s.latency_quantile(0.99));
  EXPECT_EQ(reg.find_counter("resilience.retransmissions")->value(), 4u);
  EXPECT_EQ(reg.find_counter("resilience.acks_sent")->value(), 50u);
}

// --- trace -----------------------------------------------------------------

TEST(Trace, DisabledEmittersAreSilentNoOps) {
  ASSERT_FALSE(trace::enabled());
  trace::complete("x", "cat", trace::kSimPid, 0, 0.0, 1.0);
  trace::instant("y", "cat", trace::kSimPid, 0, 0.0);
  EXPECT_EQ(trace::event_count(), 0u);
  EXPECT_FALSE(trace::end());  // no active session
}

TEST(Trace, SimulationTraceIsWellFormedChromeJson) {
  const std::string path = tmp_path("trace.json");
  ASSERT_TRUE(trace::begin(path));
  EXPECT_FALSE(trace::begin(path));  // second begin refused

  noc::NetworkParams np;  // 4x4 Table 1 mesh
  auto b = sprint::make_noc_sprinting_network(np, 4, "uniform", 7);
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 2000;
  sim.injection_rate = 0.1;
  sim.trace_sample = 64;
  const noc::SimResults r = noc::run_simulation(*b.network, sim);
  EXPECT_GT(r.packets_ejected, 0u);

  ASSERT_TRUE(trace::end());
  EXPECT_FALSE(trace::enabled());

  const json::Value doc = json::Value::parse(slurp(path));
  const json::Value& ev = doc.at("traceEvents");
  ASSERT_TRUE(ev.is_array());
  ASSERT_GT(ev.size(), 10u);

  std::set<std::string> spans, counters;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const json::Value& e = ev.at(i);
    ASSERT_TRUE(e.at("name").is_string());
    ASSERT_TRUE(e.at("ph").is_string());
    ASSERT_TRUE(e.at("pid").is_number());
    const std::string ph = e.at("ph").as_string();
    if (ph == "X") {
      EXPECT_TRUE(e.at("dur").is_number());
      spans.insert(e.at("name").as_string());
    } else if (ph == "C") {
      counters.insert(e.at("name").as_string());
    }
    if (ph != "M") {
      EXPECT_TRUE(e.at("ts").is_number());
    }
  }
  // The three simulation phases render as spans on the sim timeline...
  EXPECT_TRUE(spans.count("warmup"));
  EXPECT_TRUE(spans.count("measure"));
  EXPECT_TRUE(spans.count("drain"));
  // ...and periodic samples as counter tracks.
  EXPECT_TRUE(counters.count("network_activity"));
  EXPECT_TRUE(counters.count("router_occupancy"));
  std::remove(path.c_str());
}

TEST(Trace, TracingDoesNotPerturbSimulationResults) {
  noc::NetworkParams np;
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 2000;
  sim.injection_rate = 0.15;
  sim.trace_sample = 32;

  auto plain = sprint::make_noc_sprinting_network(np, 4, "uniform", 3);
  const noc::SimResults a = noc::run_simulation(*plain.network, sim);

  const std::string path = tmp_path("trace_perturb.json");
  ASSERT_TRUE(trace::begin(path));
  auto traced = sprint::make_noc_sprinting_network(np, 4, "uniform", 3);
  const noc::SimResults b = noc::run_simulation(*traced.network, sim);
  ASSERT_TRUE(trace::end());
  std::remove(path.c_str());

  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters.link_flits, b.counters.link_flits);
}

// --- run reports -----------------------------------------------------------

TEST(Report, SimResultsRoundTripExactly) {
  noc::NetworkParams np;
  auto b = sprint::make_noc_sprinting_network(np, 4, "uniform", 7);
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 2000;
  sim.injection_rate = 0.1;
  const noc::SimResults r = noc::run_simulation(*b.network, sim);
  ASSERT_GT(r.packets_ejected, 0u);

  const std::string path = tmp_path("report.json");
  ASSERT_TRUE(json::write_file(path, noc::to_json(r)));
  const json::Value back = json::Value::parse(slurp(path));
  std::remove(path.c_str());

  EXPECT_EQ(back.at("avg_packet_latency").as_number(), r.avg_packet_latency);
  EXPECT_EQ(back.at("avg_network_latency").as_number(),
            r.avg_network_latency);
  EXPECT_EQ(back.at("p50_latency").as_number(), r.p50_latency);
  EXPECT_EQ(back.at("p99_latency").as_number(), r.p99_latency);
  EXPECT_EQ(back.at("max_packet_latency").as_number(), r.max_packet_latency);
  EXPECT_EQ(back.at("avg_hops").as_number(), r.avg_hops);
  EXPECT_EQ(back.at("packets_generated").as_number(),
            static_cast<double>(r.packets_generated));
  EXPECT_EQ(back.at("packets_ejected").as_number(),
            static_cast<double>(r.packets_ejected));
  EXPECT_EQ(back.at("accepted_rate").as_number(), r.accepted_rate);
  EXPECT_EQ(back.at("saturated").as_bool(), r.saturated);
  EXPECT_EQ(back.at("histogram_saturated").as_bool(), r.histogram_saturated);
  EXPECT_EQ(back.at("hung").as_bool(), r.hung);
  EXPECT_EQ(back.at("cycles").as_number(), static_cast<double>(r.cycles));
  EXPECT_EQ(back.at("counters").at("link_flits").as_number(),
            static_cast<double>(r.counters.link_flits));
  EXPECT_EQ(back.at("resilience").at("retransmissions").as_number(),
            static_cast<double>(r.resilience.retransmissions));
  // Quantiles must bracket sensibly after the ceil/interpolation fix.
  EXPECT_LE(r.p50_latency, r.p99_latency);
  EXPECT_LE(r.p99_latency, r.max_packet_latency + 2.0);
}

TEST(Report, SimResultsMetricsExportMatchesFields) {
  noc::NetworkParams np;
  auto b = sprint::make_noc_sprinting_network(np, 4, "uniform", 7);
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 1000;
  const noc::SimResults r = noc::run_simulation(*b.network, sim);

  MetricsRegistry reg;
  r.export_metrics(reg);
  EXPECT_DOUBLE_EQ(reg.find_gauge("sim.avg_packet_latency")->value(),
                   r.avg_packet_latency);
  EXPECT_EQ(reg.find_counter("sim.packets_ejected")->value(),
            r.packets_ejected);
  EXPECT_EQ(reg.find_counter("sim.cycles")->value(),
            static_cast<std::uint64_t>(r.cycles));
}

// The exact fig09 dedup configuration (Table 1 mesh, default cosim
// windows, seed 7): the report payload must carry the numbers
// EXPERIMENTS.md records for that row — dedup's optimal sprint level is
// 4 — and round-trip them bit-exactly through dump/parse.
TEST(Report, CosimResultRoundTripsFig09Numbers) {
  const noc::NetworkParams np;
  const cmp::PerfModel pm(np.num_nodes());
  const auto suite = cmp::parsec_suite(np.num_nodes());
  const cmp::WorkloadParams& w = cmp::find_workload(suite, "dedup");
  sprint::CosimConfig cc;  // fig09 uses the defaults
  cc.seed = 7;
  const sprint::CosimResult r = sprint::cosimulate(np, w, pm, cc);
  EXPECT_EQ(r.level, 4);  // the Section 4.4 anchor (EXPERIMENTS.md)
  EXPECT_LT(r.noc_latency, r.full_latency);  // CDOR cuts latency
  EXPECT_GT(r.full_latency, 0.0);
  EXPECT_FALSE(r.noc_saturated);

  const json::Value back =
      json::Value::parse(sprint::to_json(r).dump(2));
  EXPECT_EQ(back.at("level").as_number(), static_cast<double>(r.level));
  EXPECT_EQ(back.at("full_latency").as_number(), r.full_latency);
  EXPECT_EQ(back.at("noc_latency").as_number(), r.noc_latency);
  EXPECT_EQ(back.at("full_noc_power").as_number(), r.full_noc_power);
  EXPECT_EQ(back.at("noc_noc_power").as_number(), r.noc_noc_power);
  EXPECT_EQ(back.at("exec_full").as_number(), r.exec_full);
  EXPECT_EQ(back.at("exec_noc").as_number(), r.exec_noc);
  EXPECT_EQ(back.at("full_saturated").as_bool(), r.full_saturated);
  EXPECT_EQ(back.at("noc_saturated").as_bool(), r.noc_saturated);
  // The fig09/fig10 manifests replay through the inverse.
  EXPECT_EQ(sprint::to_json(sprint::cosim_result_from_json(back)).dump(),
            sprint::to_json(r).dump());
}

}  // namespace
}  // namespace nocs
