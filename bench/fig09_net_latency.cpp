// Figure 9 — average network latency running PARSEC under full-sprinting
// vs NoC-sprinting.
//
// Paper result: NoC-sprinting cuts average network latency by 24.5 % by
// keeping traffic inside a compact convex region (CDOR avoids traversing
// the dark region entirely).
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "parsec_sim.hpp"

using namespace nocs;
using namespace nocs::cmp;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = bench::network_params(cfg);
  bench::banner("Figure 9: average network latency, PARSEC",
                "full-sprinting (16 nodes, XY-DOR) vs NoC-sprinting "
                "(optimal convex region, CDOR, dark region gated)",
                net);

  const std::uint64_t seed = cfg.get_int("seed", 7);
  const int threads = static_cast<int>(cfg.get_int("threads", 0));
  const PerfModel pm(net.num_nodes());
  const auto suite = parsec_suite(net.num_nodes());

  // checkpoint= names a manifest file: finished benchmarks are recorded as
  // they complete, and a killed run re-launched with the same arguments
  // replays them instead of re-simulating (see docs/SNAPSHOT_FORMAT.md).
  snapshot::TaskManifest manifest(
      cfg.get_string("checkpoint", ""),
      bench::parsec_suite_fingerprint(net, suite, seed));

  // One worker per benchmark; rows are folded in suite order afterwards so
  // the table and averages match the serial loop exactly.
  const auto results =
      bench::run_parsec_suite(net, suite, pm, seed, threads, &manifest);

  Table t({"benchmark", "inj (flits/cyc)", "level", "full lat (cyc)",
           "noc-sprint lat (cyc)", "reduction"});
  std::vector<double> reductions;
  json::Value rows = json::Value::array();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const WorkloadParams& w = suite[i];
    const sprint::CosimResult& r = results[i];
    const double red = 1.0 - r.noc_latency / r.full_latency;
    reductions.push_back(red);
    t.add_row({w.name, Table::fmt(w.injection_rate, 2),
               Table::fmt(static_cast<long long>(r.level)),
               Table::fmt(r.full_latency, 2), Table::fmt(r.noc_latency, 2),
               Table::pct(red)});
    json::Value row = json::Value::object();
    row.set("benchmark", w.name);
    row.set("injection_rate", w.injection_rate);
    row.set("level", r.level);
    row.set("full_latency", r.full_latency);
    row.set("noc_latency", r.noc_latency);
    row.set("reduction", red);
    rows.push_back(std::move(row));
  }
  t.print();

  bench::headline("average network latency reduction", "24.5%",
                  Table::pct(arithmetic_mean(reductions)));

  json::Value doc = json::Value::object();
  doc.set("figure", "fig09_net_latency");
  doc.set("config", bench::to_json(net));
  doc.set("seed", static_cast<std::uint64_t>(seed));
  doc.set("benchmarks", std::move(rows));
  doc.set("avg_latency_reduction", arithmetic_mean(reductions));
  bench::maybe_write_report(cfg, std::move(doc));
  return 0;
}
