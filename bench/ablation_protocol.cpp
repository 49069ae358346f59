// Ablation — synthetic uniform traffic vs cache-shaped request/reply
// traffic.
//
// The paper's PARSEC network numbers come from gem5's MESI traffic; our
// Figures 9/10 approximate it with uniform single-class packets.  This
// ablation re-runs the NoC-sprinting vs full-sprinting comparison with a
// structured protocol load — short class-0 requests to address-
// interleaved LLC banks plus memory-controller traffic at the master, and
// 5-flit class-1 data replies — to check the paper's conclusions are not
// an artifact of the uniform-traffic simplification.
#include <cstdio>

#include "bench_util.hpp"
#include "sprint/scenario.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  DesignPoint point;
  point.params = bench::network_params(cfg);
  point.params.num_classes = 2;  // request + response virtual networks
  bench::banner("Ablation: uniform vs cache request/reply traffic",
                "does the NoC-sprinting advantage survive protocol-shaped "
                "load? (1-flit requests, 5-flit replies, MC hotspot)",
                point.params);

  point.seed = cfg.get_int("seed", 29);
  point.sim.warmup = 1000;
  point.sim.measure = 6000;
  point.sim.injection_rate = cfg.get_double("injection", 0.08);

  const double base_rate = point.sim.injection_rate;
  Table t({"traffic", "level", "noc lat", "full lat", "lat cut", "noc mW",
           "full mW", "power cut"});
  for (const bool protocol : {false, true}) {
    // Each 1-flit request begets a 5-flit reply: scale the offered request
    // rate so total flit load matches the uniform rows.
    point.sim.injection_rate = protocol ? base_rate / 6.0 : base_rate;
    point.traffic = protocol ? "cache" : "uniform";
    point.request_reply = protocol;
    for (int level : {4, 8}) {
      point.level = level;
      // NoC-sprinting, then full-sprinting (random endpoint mapping).
      point.scheme = NetworkScheme::kNoc;
      const TaskRun n = run_point(point);
      point.scheme = NetworkScheme::kFull;
      const TaskRun f = run_point(point);
      const double rn = n.results.avg_packet_latency;
      const double rf = f.results.avg_packet_latency;
      const Watts pn = n.power.total(), pf = f.power.total();

      t.add_row({protocol ? "cache req/reply" : "uniform",
                 Table::fmt(static_cast<long long>(level)),
                 Table::fmt(rn, 2), Table::fmt(rf, 2),
                 Table::pct(1.0 - rn / rf), Table::fmt(pn * 1e3, 1),
                 Table::fmt(pf * 1e3, 1), Table::pct(1.0 - pn / pf)});
    }
  }
  t.print();

  bench::headline(
      "conclusion robustness",
      "latency/power advantages hold under protocol traffic",
      "cuts at matching levels are similar for uniform and cache-shaped "
      "request/reply load");
  return 0;
}
