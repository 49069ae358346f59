// Ablation — NoC-sprinting across mesh sizes.
//
// The dark-silicon trend (Figure 3) says the NoC's share of chip power
// grows with core count; this ablation shows NoC-sprinting's savings grow
// with it.  For 4x4, 6x6, and 8x8 meshes sprinting a fixed 4-core region,
// we measure simulated network power and latency vs full-sprinting.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "noc/simulator.hpp"
#include "power/chip_power.hpp"
#include "power/noc_power.hpp"
#include "sprint/network_builder.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  bench::banner("Ablation: NoC-sprinting vs mesh size",
                "4-core sprint on 4x4 / 6x6 / 8x8 meshes; savings grow "
                "with the dark fraction",
                bench::network_params(cfg));

  const std::uint64_t seed = cfg.get_int("seed", 23);
  const int threads = static_cast<int>(cfg.get_int("threads", 0));
  noc::SimConfig sim;
  sim.warmup = 1000;
  sim.measure = 6000;
  sim.injection_rate = cfg.get_double("injection", 0.15);

  // All six simulations (3 mesh sizes x 2 schemes) are independent; run
  // them as parallel tasks and print the rows in mesh order afterwards.
  const std::vector<int> sides = {4, 6, 8};
  struct Row {
    noc::SimResults noc, full;
    Watts noc_power = 0.0, full_power = 0.0;
  };
  std::vector<Row> rows(sides.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < sides.size(); ++i) {
    noc::NetworkParams params;
    params.width = sides[i];
    params.height = sides[i];
    const int level = 4;
    tasks.push_back([&, i, params, level] {
      auto nb = make_noc_sprinting_network(params, level, "uniform", seed);
      rows[i].noc = run_simulation(*nb.network, sim);
      rows[i].noc_power =
          power::estimate_noc_power(*nb.network, rows[i].noc.cycles).total();
    });
    tasks.push_back([&, i, params, level] {
      auto fb = make_full_sprinting_network(params, level, "uniform", seed);
      rows[i].full = run_simulation(*fb.network, sim);
      rows[i].full_power =
          power::estimate_noc_power(*fb.network, rows[i].full.cycles).total();
    });
  }
  run_tasks(tasks, threads);

  Table t({"mesh", "dark frac", "noc lat", "full lat", "lat cut",
           "noc power (mW)", "full power (mW)", "power cut",
           "NoC share @nominal"});
  for (std::size_t i = 0; i < sides.size(); ++i) {
    const int side = sides[i];
    const int n = side * side;
    const int level = 4;
    const Row& row = rows[i];

    power::ChipPowerParams chip_params;
    chip_params.num_cores = n;
    const auto nominal = power::ChipPowerModel(chip_params).nominal();

    t.add_row({std::to_string(side) + "x" + std::to_string(side),
               Table::pct(static_cast<double>(n - level) / n, 0),
               Table::fmt(row.noc.avg_packet_latency, 2),
               Table::fmt(row.full.avg_packet_latency, 2),
               Table::pct(1.0 - row.noc.avg_packet_latency /
                                    row.full.avg_packet_latency),
               Table::fmt(row.noc_power * 1e3, 1),
               Table::fmt(row.full_power * 1e3, 1),
               Table::pct(1.0 - row.noc_power / row.full_power),
               Table::pct(nominal.noc / nominal.total())});
  }
  t.print();

  bench::headline("power saving vs mesh size",
                  "the darker the chip, the more NoC-sprinting saves",
                  "power cut grows monotonically with the dark fraction");
  return 0;
}
