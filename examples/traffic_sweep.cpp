// Traffic sweep: exercise the cycle-accurate NoC directly.
//
// For every synthetic traffic pattern and a set of sprint levels, runs the
// NoC-sprinting network (CDOR + gated dark region) and the full-sprinting
// baseline, printing latency and network power side by side.  Useful for
// exploring where CDOR's compact-region advantage is largest (answer:
// low levels, locality-free patterns).
//
// Run:  ./traffic_sweep [injection=0.15] [seed=3]
#include <cstdio>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sprint/scenario.hpp"

using namespace nocs;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  sprint::DesignPoint point;  // Table 1 network
  point.seed = cfg.get_int("seed", 3);
  point.sim.warmup = 1000;
  point.sim.measure = 6000;
  point.sim.injection_rate = cfg.get_double("injection", 0.15);

  std::printf("offered load %.2f flits/cycle/endpoint\n\n",
              point.sim.injection_rate);

  Table t({"traffic", "level", "noc lat", "full lat", "lat cut", "noc mW",
           "full mW", "power cut"});
  for (const char* traffic :
       {"uniform", "neighbor", "transpose", "bitcomp", "hotspot"}) {
    for (int level : {4, 8, 16}) {
      point.traffic = traffic;
      point.level = level;
      point.scheme = sprint::NetworkScheme::kNoc;
      const sprint::TaskRun n = sprint::run_point(point);
      point.scheme = sprint::NetworkScheme::kFull;
      const sprint::TaskRun f = sprint::run_point(point);
      const noc::SimResults& rn = n.results;
      const noc::SimResults& rf = f.results;
      const Watts pn = n.power.total(), pf = f.power.total();

      t.add_row({traffic, Table::fmt(static_cast<long long>(level)),
                 rn.saturated ? "sat" : Table::fmt(rn.avg_packet_latency, 1),
                 rf.saturated ? "sat" : Table::fmt(rf.avg_packet_latency, 1),
                 (rn.saturated || rf.saturated)
                     ? "-"
                     : Table::pct(1.0 - rn.avg_packet_latency /
                                            rf.avg_packet_latency),
                 Table::fmt(pn * 1e3, 1), Table::fmt(pf * 1e3, 1),
                 Table::pct(1.0 - pn / pf)});
    }
  }
  t.print();

  std::printf(
      "\nreading the table: the latency cut shrinks as the sprint level\n"
      "approaches 16 (at level 16 both schemes use the whole mesh), while\n"
      "the power cut tracks how much of the network can be gated.\n");
  return 0;
}
