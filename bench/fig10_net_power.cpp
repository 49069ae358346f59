// Figure 10 — total network power during the sprint phase of PARSEC.
//
// Paper result: NoC-sprinting saves 71.9 % network power on average vs
// full-sprinting by power-gating the dark sub-network (which otherwise
// leaks and forwards packets) and operating only the convex active region.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "parsec_sim.hpp"

using namespace nocs;
using namespace nocs::cmp;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = bench::network_params(cfg);
  bench::banner("Figure 10: total network power, PARSEC sprint phase",
                "full-sprinting vs NoC-sprinting (routers + links, "
                "DSENT-style event energies from simulation counters)",
                net);

  const std::uint64_t seed = cfg.get_int("seed", 7);
  const int threads = static_cast<int>(cfg.get_int("threads", 0));
  const PerfModel pm(net.num_nodes());
  const auto suite = parsec_suite(net.num_nodes());

  // checkpoint= names a manifest file for per-benchmark resume (same
  // semantics as fig09; see docs/SNAPSHOT_FORMAT.md).
  snapshot::TaskManifest manifest(
      cfg.get_string("checkpoint", ""),
      bench::parsec_suite_fingerprint(net, suite, seed));

  const auto results =
      bench::run_parsec_suite(net, suite, pm, seed, threads, &manifest);

  Table t({"benchmark", "level", "full power (mW)", "noc-sprint power (mW)",
           "saving"});
  std::vector<double> savings;
  json::Value rows = json::Value::array();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const WorkloadParams& w = suite[i];
    const sprint::CosimResult& r = results[i];
    const double save = 1.0 - r.noc_noc_power / r.full_noc_power;
    savings.push_back(save);
    t.add_row({w.name, Table::fmt(static_cast<long long>(r.level)),
               Table::fmt(r.full_noc_power * 1e3, 2),
               Table::fmt(r.noc_noc_power * 1e3, 2), Table::pct(save)});
    json::Value row = json::Value::object();
    row.set("benchmark", w.name);
    row.set("level", r.level);
    row.set("full_power_w", r.full_noc_power);
    row.set("noc_power_w", r.noc_noc_power);
    row.set("saving", save);
    rows.push_back(std::move(row));
  }
  t.print();

  bench::headline("average network power saving", "71.9%",
                  Table::pct(arithmetic_mean(savings)));

  json::Value doc = json::Value::object();
  doc.set("figure", "fig10_net_power");
  doc.set("config", bench::to_json(net));
  doc.set("seed", static_cast<std::uint64_t>(seed));
  doc.set("benchmarks", std::move(rows));
  doc.set("avg_power_saving", arithmetic_mean(savings));
  bench::maybe_write_report(cfg, std::move(doc));
  return 0;
}
