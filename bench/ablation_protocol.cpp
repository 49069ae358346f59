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
#include "noc/simulator.hpp"
#include "power/noc_power.hpp"
#include "sprint/cdor.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"

using namespace nocs;
using namespace nocs::sprint;

namespace {

struct Result {
  double latency;
  Watts power;
};

Result run_one(noc::Network& net, const noc::SimConfig& sim) {
  const noc::SimResults r = run_simulation(net, sim);
  return {r.avg_packet_latency,
          power::estimate_noc_power(net, r.cycles).total()};
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  noc::NetworkParams params = bench::network_params(cfg);
  params.num_classes = 2;  // request + response virtual networks
  bench::banner("Ablation: uniform vs cache request/reply traffic",
                "does the NoC-sprinting advantage survive protocol-shaped "
                "load? (1-flit requests, 5-flit replies, MC hotspot)",
                params);

  const std::uint64_t seed = cfg.get_int("seed", 29);
  noc::SimConfig sim;
  sim.warmup = 1000;
  sim.measure = 6000;
  sim.injection_rate = cfg.get_double("injection", 0.08);

  const double base_rate = sim.injection_rate;
  Table t({"traffic", "level", "noc lat", "full lat", "lat cut", "noc mW",
           "full mW", "power cut"});
  for (const bool protocol : {false, true}) {
    // Each 1-flit request begets a 5-flit reply: scale the offered request
    // rate so total flit load matches the uniform rows.
    sim.injection_rate = protocol ? base_rate / 6.0 : base_rate;
    for (int level : {4, 8}) {
      // NoC-sprinting configuration.
      const auto active = active_set(params.shape(), level, 0);
      CdorRouting cdor(params.shape(), active, 0);
      noc::Network noc_net(params, &cdor);
      noc_net.set_endpoints(active,
                            noc::make_traffic(protocol ? "cache" : "uniform",
                                              level));
      if (protocol) noc_net.set_request_reply(1, 5);
      noc_net.gate_dark_region(active);
      noc_net.set_seed(seed);
      const Result rn = run_one(noc_net, sim);

      // Full-sprinting configuration (random endpoint mapping).
      auto full = make_full_sprinting_network(params, level,
                                              protocol ? "cache" : "uniform",
                                              seed);
      if (protocol) full.network->set_request_reply(1, 5);
      const Result rf = run_one(*full.network, sim);

      t.add_row({protocol ? "cache req/reply" : "uniform",
                 Table::fmt(static_cast<long long>(level)),
                 Table::fmt(rn.latency, 2), Table::fmt(rf.latency, 2),
                 Table::pct(1.0 - rn.latency / rf.latency),
                 Table::fmt(rn.power * 1e3, 1), Table::fmt(rf.power * 1e3, 1),
                 Table::pct(1.0 - rn.power / rf.power)});
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
