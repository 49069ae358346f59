// Ablation — router pipeline depth (classic 5-stage vs 3-stage
// lookahead/speculative).
//
// Table 1 specifies the classic five-stage router.  A shallower pipeline
// lowers absolute latency everywhere but *shrinks* NoC-sprinting's
// relative latency cut: per-hop router delay is what makes short convex
// paths pay off, so deeper pipelines amplify the paper's Figure 11 gap.
#include <cstdio>

#include "bench_util.hpp"
#include "sprint/scenario.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  bench::banner("Ablation: router pipeline depth",
                "5-stage (Table 1) vs 3-stage lookahead router: absolute "
                "latency and the sprint latency cut",
                bench::network_params(cfg));

  DesignPoint point;
  point.seed = cfg.get_int("seed", 41);
  point.sim.warmup = 1000;
  point.sim.measure = 6000;
  point.sim.injection_rate = cfg.get_double("injection", 0.1);

  Table t({"pipeline", "level", "noc lat (cyc)", "full lat (cyc)",
           "lat cut"});
  for (int stages : {5, 3}) {
    for (int level : {4, 8}) {
      point.params = bench::network_params(cfg);
      point.params.pipeline_stages = stages;
      point.level = level;
      point.scheme = NetworkScheme::kNoc;
      const double noc_lat = run_point(point).results.avg_packet_latency;
      point.scheme = NetworkScheme::kFull;
      const double full_lat = run_point(point).results.avg_packet_latency;
      t.add_row({stages == 5 ? "5-stage (paper)" : "3-stage lookahead",
                 Table::fmt(static_cast<long long>(level)),
                 Table::fmt(noc_lat, 2), Table::fmt(full_lat, 2),
                 Table::pct(1.0 - noc_lat / full_lat)});
    }
  }
  t.print();

  bench::headline(
      "pipeline depth and the sprint advantage",
      "Figure 11's latency cut assumes the five-stage router",
      "the relative cut shrinks with a shallower pipeline (absolute "
      "latency drops for both schemes)");
  return 0;
}
