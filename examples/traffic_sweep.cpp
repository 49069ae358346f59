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
#include "noc/simulator.hpp"
#include "power/noc_power.hpp"
#include "sprint/network_builder.hpp"

using namespace nocs;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const double injection = cfg.get_double("injection", 0.15);
  const std::uint64_t seed = cfg.get_int("seed", 3);

  noc::NetworkParams params;  // Table 1 defaults

  noc::SimConfig sim;
  sim.warmup = 1000;
  sim.measure = 6000;
  sim.injection_rate = injection;

  std::printf("offered load %.2f flits/cycle/endpoint\n\n", injection);

  Table t({"traffic", "level", "noc lat", "full lat", "lat cut", "noc mW",
           "full mW", "power cut"});
  for (const char* traffic :
       {"uniform", "neighbor", "transpose", "bitcomp", "hotspot"}) {
    for (int level : {4, 8, 16}) {
      auto nb = sprint::make_noc_sprinting_network(params, level, traffic,
                                                   seed);
      const noc::SimResults rn = run_simulation(*nb.network, sim);
      const Watts pn =
          power::estimate_noc_power(*nb.network, rn.cycles).total();

      auto fb = sprint::make_full_sprinting_network(params, level, traffic,
                                                    seed);
      const noc::SimResults rf = run_simulation(*fb.network, sim);
      const Watts pf =
          power::estimate_noc_power(*fb.network, rf.cycles).total();

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
