// Ablation — the floorplan's wiring cost and the SMART-wire mitigation
// (Section 3.3).
//
// The thermal-aware floorplan stretches logical mesh links across the
// die.  With conventional repeated wires each stretched link costs extra
// cycles; with SMART-style clockless repeated wires (Krishna et al.)
// multi-pitch traversals complete in one cycle.  We simulate a 4-core and
// an 8-core sprint under three wire configurations and report latency.
#include <cstdio>

#include "bench_util.hpp"
#include "noc/simulator.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/physical_wires.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = bench::network_params(cfg);
  bench::banner("Ablation: floorplan wiring cost and SMART wires",
                "identity vs thermal-aware placement x conventional vs "
                "SMART repeated wires",
                net);

  const MeshShape mesh = net.shape();
  const noc::Topology topo = noc::Topology::mesh(net.width, net.height);
  const std::uint64_t seed = cfg.get_int("seed", 17);
  const auto identity = identity_floorplan(mesh).positions;
  const auto remapped = thermal_aware_floorplan(mesh, 0).positions;

  noc::SimConfig sim;
  sim.warmup = 1000;
  sim.measure = 6000;
  sim.injection_rate = cfg.get_double("injection", 0.15);

  struct Cfg {
    const char* name;
    const std::vector<int>* positions;
    int smart;
  };
  WireParams conventional;  // smart_max_pitches = 0
  const Cfg configs[] = {
      {"identity + conventional", &identity, 0},
      {"floorplan + conventional", &remapped, 0},
      {"floorplan + SMART (8 pitches/cycle)", &remapped, 8},
  };

  for (int level : {4, 8}) {
    std::printf("\n--- %d-core sprint ---\n", level);
    Table t({"configuration", "avg link (mm)", "max link (mm)",
             "latency (cyc)", "vs identity"});
    double base_latency = 0.0;
    for (const Cfg& c : configs) {
      WireParams wires = conventional;
      wires.smart_max_pitches = c.smart;
      const PhysicalWires phys(mesh, *c.positions, wires);
      auto b = make_sprinting_network(net, topo, NetworkScheme::kNoc, level,
                                      "uniform", seed, 0, phys.latency_fn());
      const noc::SimResults r = run_simulation(*b.network, sim);
      if (c.positions == &identity) base_latency = r.avg_packet_latency;
      t.add_row({c.name, Table::fmt(phys.average_link_length_mm(), 2),
                 Table::fmt(phys.max_link_length_mm(), 2),
                 r.saturated ? "sat" : Table::fmt(r.avg_packet_latency, 2),
                 Table::pct(r.avg_packet_latency / base_latency - 1.0, 1)});
    }
    t.print();
  }

  bench::headline(
      "SMART wires absorb the floorplan's wiring cost",
      "multi-hop traversals in a single clock cycle (Section 3.3)",
      "floorplan+conventional pays a latency penalty; floorplan+SMART "
      "returns to near the identity latency");
  return 0;
}
