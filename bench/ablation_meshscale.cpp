// Ablation — NoC-sprinting across mesh sizes.
//
// The dark-silicon trend (Figure 3) says the NoC's share of chip power
// grows with core count; this ablation shows NoC-sprinting's savings grow
// with it.  For 4x4, 6x6, and 8x8 meshes sprinting a fixed 4-core region,
// we measure simulated network power and latency vs full-sprinting.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "noc/parallel_sweep.hpp"
#include "power/chip_power.hpp"
#include "sprint/scenario.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  bench::banner("Ablation: NoC-sprinting vs mesh size",
                "4-core sprint on 4x4 / 6x6 / 8x8 meshes; savings grow "
                "with the dark fraction",
                bench::network_params(cfg));

  const int threads = static_cast<int>(cfg.get_int("threads", 0));
  const int level = 4;
  DesignPoint point;
  point.level = level;
  point.seed = cfg.get_int("seed", 23);
  point.sim.warmup = 1000;
  point.sim.measure = 6000;
  point.sim.injection_rate = cfg.get_double("injection", 0.15);

  // All six simulations (3 mesh sizes x 2 schemes, scheme-minor) are
  // independent; run them as parallel tasks and print the rows in mesh
  // order afterwards.
  const std::vector<int> sides = {4, 6, 8};
  const std::vector<json::Value> runs = noc::run_resumable(
      2 * sides.size(), threads, nullptr, nullptr, [&](std::size_t i) {
        DesignPoint p = point;
        p.params.width = p.params.height = sides[i / 2];
        if (i % 2 == 1) p.scheme = NetworkScheme::kFull;
        const TaskRun r = run_point(p);
        json::Value o = json::Value::object();
        o.set("lat", r.results.avg_packet_latency);
        o.set("pow", r.power.total());
        return o;
      });

  Table t({"mesh", "dark frac", "noc lat", "full lat", "lat cut",
           "noc power (mW)", "full power (mW)", "power cut",
           "NoC share @nominal"});
  for (std::size_t i = 0; i < sides.size(); ++i) {
    const int side = sides[i];
    const int n = side * side;
    const double noc_lat = runs[2 * i].at("lat").as_number();
    const double full_lat = runs[2 * i + 1].at("lat").as_number();
    const double noc_pow = runs[2 * i].at("pow").as_number();
    const double full_pow = runs[2 * i + 1].at("pow").as_number();

    power::ChipPowerParams chip_params;
    chip_params.num_cores = n;
    const auto nominal = power::ChipPowerModel(chip_params).nominal();

    t.add_row({std::to_string(side) + "x" + std::to_string(side),
               Table::pct(static_cast<double>(n - level) / n, 0),
               Table::fmt(noc_lat, 2), Table::fmt(full_lat, 2),
               Table::pct(1.0 - noc_lat / full_lat),
               Table::fmt(noc_pow * 1e3, 1), Table::fmt(full_pow * 1e3, 1),
               Table::pct(1.0 - noc_pow / full_pow),
               Table::pct(nominal.noc / nominal.total())});
  }
  t.print();

  bench::headline("power saving vs mesh size",
                  "the darker the chip, the more NoC-sprinting saves",
                  "power cut grows monotonically with the dark fraction");
  return 0;
}
