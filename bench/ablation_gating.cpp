// Ablation — power-gating policies on the NoC.
//
// Compares (i) no gating, (ii) conventional dynamic gating (idle-timeout +
// wake-on-arrival, the Section 2 related-work schemes that "do not account
// for the underlying core status"), and (iii) NoC-sprinting's static
// dark-region gating, at a 4-core sprint.  Dynamic gating recovers some
// leakage but pays wake-up latency and stray wake-ups; static gating by
// core state gets the full benefit at zero latency cost.  Also prints the
// break-even analysis.
#include <cstdio>

#include "bench_util.hpp"
#include "noc/simulator.hpp"
#include "power/noc_power.hpp"
#include "sprint/cdor.hpp"
#include "sprint/power_gating.hpp"
#include "sprint/scenario.hpp"
#include "sprint/topology.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = bench::network_params(cfg);
  bench::banner("Ablation: NoC power-gating policies (4-core sprint)",
                "none vs dynamic (idle-timeout) vs static dark-region "
                "gating",
                net);

  const int level = static_cast<int>(cfg.get_int("level", 4));
  const std::uint64_t seed = cfg.get_int("seed", 5);
  const power::RouterPowerParams rp =
      power::RouterPowerParams::from_network(net);
  const power::RouterPowerModel router_model(rp);

  const GatingAnalysis analysis(router_model, GatingParams{});
  std::printf("router leakage: %.3f mW; break-even idle period: %.0f "
              "cycles; wake-up latency: %d cycles\n\n",
              router_model.leakage_power() * 1e3,
              analysis.break_even_cycles(), GatingParams{}.wakeup_latency);

  noc::SimConfig sim;
  sim.injection_rate = cfg.get_double("injection", 0.1);
  sim.warmup = 2000;
  sim.measure = 10000;

  Table t({"policy", "latency (cyc)", "NoC power (mW)", "gated cyc frac",
           "wake events"});

  // (i) Fine-grained traffic, all routers on (no gating): convex region
  // endpoints, CDOR, but the dark region left powered.
  {
    const auto active = active_set(net.shape(), level, 0);
    CdorRouting cdor(net.shape(), active, 0);
    noc::Network n(net, &cdor);
    n.set_endpoints(active, noc::make_traffic("uniform", level));
    n.set_seed(seed);
    const noc::SimResults r = noc::run_simulation(n, sim);
    const auto est = power::estimate_noc_power(n, r.cycles);
    const auto c = n.total_counters();
    t.add_row({"no gating", Table::fmt(r.avg_packet_latency, 2),
               Table::fmt(est.total() * 1e3, 2),
               Table::pct(static_cast<double>(c.gated_cycles) /
                          (static_cast<double>(r.cycles) * net.num_nodes())),
               Table::fmt(static_cast<long long>(c.wake_events))});
  }

  // (ii) Dynamic gating: same setup, idle-timeout gating with
  // wake-on-arrival on every router.
  {
    const auto active = active_set(net.shape(), level, 0);
    CdorRouting cdor(net.shape(), active, 0);
    noc::Network n(net, &cdor);
    n.set_endpoints(active, noc::make_traffic("uniform", level));
    n.set_dynamic_gating(true);
    n.set_seed(seed);
    const noc::SimResults r = noc::run_simulation(n, sim);
    const auto est = power::estimate_noc_power(n, r.cycles);
    const auto c = n.total_counters();
    t.add_row({"dynamic (idle-timeout)", Table::fmt(r.avg_packet_latency, 2),
               Table::fmt(est.total() * 1e3, 2),
               Table::pct(static_cast<double>(c.gated_cycles) /
                          (static_cast<double>(r.cycles) * net.num_nodes())),
               Table::fmt(static_cast<long long>(c.wake_events))});
  }

  // (iii) NoC-sprinting: static dark-region gating.
  {
    DesignPoint point;
    point.params = net;
    point.level = level;
    point.seed = seed;
    point.sim = sim;
    const TaskRun run = run_point(point);
    const noc::SimResults& r = run.results;
    const auto c = run.bundle.network->total_counters();
    t.add_row({"static dark-region", Table::fmt(r.avg_packet_latency, 2),
               Table::fmt(run.power.total() * 1e3, 2),
               Table::pct(static_cast<double>(c.gated_cycles) /
                          (static_cast<double>(r.cycles) * net.num_nodes())),
               Table::fmt(static_cast<long long>(c.wake_events))});
  }
  t.print();

  bench::headline(
      "static dark-region gating",
      "recovers the dark region's leakage with zero latency penalty",
      "power near the dynamic scheme's, latency identical to no-gating "
      "(dynamic gating pays wake-up latency and stray wake-ups)");
  return 0;
}
